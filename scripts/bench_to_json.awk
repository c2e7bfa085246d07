#!/usr/bin/awk -f
# Converts `go test -bench` output into a JSON array, one record per
# benchmark name. Metric units become keys verbatim ("ns/op", "B/op",
# "allocs/op", plus custom b.ReportMetric units like "ns/server"), so the
# baseline survives new metrics without script changes. When a benchmark
# appears more than once (go test -count=N), the repetition with the lowest
# ns/op wins: the minimum is the run least disturbed by scheduler noise,
# which keeps the regression gate stable on shared/virtualized machines.
# The first record is the machine stamp: goos, goarch and CPU model from the
# `go test` header, plus nproc and commit when passed with -v (they default
# to "unknown"). Stdlib awk only — the repo takes no dependencies for this.
#
#   go test -bench 'BenchmarkScale' -count=3 -benchmem . |
#       awk -v nproc="$(getconf _NPROCESSORS_ONLN)" \
#           -v commit="$(git describe --always --dirty)" -f scripts/bench_to_json.awk
function jstr(s) {
    gsub(/\\/, "\\\\", s)
    gsub(/"/, "\\\"", s)
    return "\"" s "\""
}
BEGIN { n = 0; goos = goarch = cpu = "unknown" }
/^goos: / { goos = substr($0, 7) }
/^goarch: / { goarch = substr($0, 9) }
/^cpu: / { cpu = substr($0, 6) }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name) # strip the -GOMAXPROCS suffix
    ns = -1
    line = sprintf("  {\"name\":\"%s\",\"iterations\":%s", name, $2)
    for (i = 3; i + 1 <= NF; i += 2) {
        line = line sprintf(",\"%s\":%s", $(i + 1), $i)
        if ($(i + 1) == "ns/op")
            ns = $i + 0
    }
    line = line "}"
    if (!(name in best)) {
        order[n++] = name
        best[name] = line
        bestns[name] = ns
    } else if (ns >= 0 && (bestns[name] < 0 || ns < bestns[name])) {
        best[name] = line
        bestns[name] = ns
    }
}
END {
    print "["
    printf "  {\"stamp\":{\"goos\":%s,\"goarch\":%s,\"cpu\":%s,\"nproc\":%s,\"commit\":%s}}%s\n",
        jstr(goos), jstr(goarch), jstr(cpu), jstr(nproc == "" ? "unknown" : nproc),
        jstr(commit == "" ? "unknown" : commit), (n > 0 ? "," : "")
    for (i = 0; i < n; i++)
        printf "%s%s\n", best[order[i]], (i < n - 1 ? "," : "")
    print "]"
}
