# Flags a reference-speed calibration that went wrong on one side of a
# comparison. Reads `label<TAB>parent slowdown<TAB>change slowdown` lines and
# prints `label: parent P, change C (R× apart)` for every line whose two
# slowdowns are more than 3× apart. Values at reference speed are values as
# measured divided by the slowdown, so such a line compares two calibrations,
# not two programs. `scripts/ab.sh` and `scripts/trace_diff.sh` run it:
#
#   awk -f scripts/slowdown_gap.awk <file>
BEGIN { FS = "\t" }
$2 > 0 && $3 > 0 {
    ratio = $2 > $3 ? $2 / $3 : $3 / $2
    if (ratio > 3) printf "%s: parent %s, change %s (%.1f× apart)\n", $1, $2, $3, ratio
}
