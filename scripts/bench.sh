#!/usr/bin/env sh
# bench.sh — record the `go test -bench` families (Fig. 1 compliance
# replay, Fig. 3 population migration, E8 engine throughput, journal
# recovery, group commit, sharded append/recovery, command submission
# sync/async/batch, remote submission over loopback HTTP sync/async,
# mining scan over a multi-thousand-instance population) as a JSON
# snapshot, for looking at one layer while working on it.
#
# This is NOT the gating benchmark: that is `bash bench/run.sh` (declared
# in BENCHMARK.json, noise budget in bench/README.md), which the driver
# runs on the parent commit and on the change. Numbers from this script
# drift with the host and gate nothing.
#
# Usage: scripts/bench.sh OUTPUT.json
#
# With $BENCH_BASELINE set to an earlier snapshot, a delta table against
# it follows.
set -eu

cd "$(dirname "$0")/.."
out="${1:?usage: scripts/bench.sh OUTPUT.json}"
baseline="${BENCH_BASELINE:-}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'Fig1|Fig3|EngineComplete|Recovery|Sharded|^BenchmarkSubmit|Mine' -benchmem . | tee "$raw"
# The remote loopback family is fsync-noise-dominated on this host (the
# sync-vs-pipelined gap is ~60µs against ~±50µs swings), so it gets a
# longer averaging window than the default 1s.
go test -run '^$' -bench 'Remote' -benchtime 3s -benchmem . | tee -a "$raw"
go test -run '^$' -bench 'Committer' -benchmem ./internal/durable | tee -a "$raw"

{
	printf '{\n'
	printf '  "generated_by": "scripts/bench.sh",\n'
	printf '  "go": "%s",\n' "$(go version | awk '{print $3}')"
	printf '  "benchmarks": [\n'
	awk '/^Benchmark/ {
		name=$1; sub(/-[0-9]+$/, "", name)
		nsop=""; bop=""; allocs=""; extra=""
		for (i=2; i<NF; i++) {
			if ($(i+1) == "ns/op")     nsop=$i
			if ($(i+1) == "B/op")      bop=$i
			if ($(i+1) == "allocs/op") allocs=$i
			if ($(i+1) == "us/instance") extra=$i
		}
		line=sprintf("    {\"name\": \"%s\", \"iterations\": %s", name, $2)
		if (nsop != "")   line=line sprintf(", \"ns_per_op\": %s", nsop)
		if (bop != "")    line=line sprintf(", \"bytes_per_op\": %s", bop)
		if (allocs != "") line=line sprintf(", \"allocs_per_op\": %s", allocs)
		if (extra != "")  line=line sprintf(", \"us_per_instance\": %s", extra)
		line=line "}"
		if (seen) printf(",\n")
		printf("%s", line)
		seen=1
	}
	END { printf("\n") }' "$raw"
	printf '  ]\n'
	printf '}\n'
} >"$out"

echo "wrote $out"

# Baseline-vs-current delta table.
if [ -n "$baseline" ] && [ -f "$baseline" ] && [ "$out" != "$baseline" ]; then
	echo
	echo "delta vs $baseline:"
	awk '
	function field(line, key,    re, v) {
		re = "\"" key "\": [0-9.+-]+"
		if (match(line, re)) {
			v = substr(line, RSTART, RLENGTH)
			sub(/^.*: /, "", v)
			return v
		}
		return ""
	}
	/"name":/ {
		name = line = $0
		sub(/^.*"name": "/, "", name); sub(/".*$/, "", name)
		ns = field(line, "ns_per_op"); al = field(line, "allocs_per_op")
		if (FILENAME == base) { bns[name] = ns; bal[name] = al; order[n++] = name }
		else { cns[name] = ns; cal[name] = al; seen[name] = 1 }
	}
	END {
		printf "  %-45s %12s %12s %8s %9s %9s %8s\n", "benchmark", "base ns/op", "cur ns/op", "ns d%", "base al", "cur al", "al d%"
		for (i = 0; i < n; i++) {
			name = order[i]
			if (!seen[name]) continue
			dn = (bns[name] != "" && bns[name]+0 > 0) ? sprintf("%+.1f", 100*(cns[name]-bns[name])/bns[name]) : "-"
			da = (bal[name] != "" && bal[name]+0 > 0) ? sprintf("%+.1f", 100*(cal[name]-bal[name])/bal[name]) : "-"
			printf "  %-45s %12s %12s %8s %9s %9s %8s\n", name, bns[name], cns[name], dn, bal[name], cal[name], da
		}
	}' base="$baseline" "$baseline" "$out"
fi
