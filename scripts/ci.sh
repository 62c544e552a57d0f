#!/bin/sh
# CI gate: vet, build, race-test, golden-check, fuzz, and perf-gate the repo.
# Run from anywhere; operates on the repository containing it.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -l reports unformatted files:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== cited tests: every Test, Benchmark and Fuzz name README.md, DESIGN.md and EXPERIMENTS.md cite is declared in a _test.go file (CHANGES.md and ROADMAP.md are history and plan, and exempt)"
declared=$(find . -path ./.bench_build -prune -o -name '*_test.go' -print | xargs sed -nE 's/^func ((Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(.*/\1/p')
missing=""
for name in $(grep -ohE '\b(Test|Benchmark|Fuzz)[A-Z0-9][A-Za-z0-9_]*' README.md DESIGN.md EXPERIMENTS.md | sort -u); do
	if ! printf '%s\n' "$declared" | grep -qxF "$name"; then
		missing="$missing $name"
	fi
done
if [ -n "$missing" ]; then
	echo "citation step: cited but declared in no _test.go file:$missing"
	exit 1
fi

echo "== inlining: the admission hot helpers, the request queue's list operations, the popularity draw and its bucket search, the per-request table probes and the per-arrival tier and residency-word reads stay inlinable (DESIGN.md §8)"
inlined=$(go build -gcflags=-m ./internal/sched 2>&1 | sed -n 's/.*: can inline //p')
for fn in '(*stripedTech).setVBusy' '(*stripedTech).vdiskOf' '(*stripedTech).windowFree' \
	'(*readyIndex).push' '(*readyIndex).popHead' '(*requestQueue).push' '(*requestQueue).unlink' \
	'(*Residency).Words'; do
	if ! printf '%s\n' "$inlined" | grep -qxF "$fn"; then
		echo "inlining step: go build -gcflags=-m no longer reports 'can inline $fn'"
		exit 1
	fi
done
if ! go build -gcflags=-m ./internal/rng 2>&1 | grep -qF 'can inline (*Discrete).index'; then
	echo "inlining step: go build -gcflags=-m no longer reports 'can inline (*Discrete).index'"
	exit 1
fi
# A closed-loop station's draw: one sample of the popularity
# distribution on the station's own stream.
if ! go build -gcflags=-m ./internal/workload 2>&1 | grep -qF 'can inline (*Generator).Draw'; then
	echo "inlining step: go build -gcflags=-m no longer reports 'can inline (*Generator).Draw'"
	exit 1
fi
# The per-request enqueue and cold-request paths: residency probe, LFU
# touch, and the tertiary queue's dedup test and enqueue, each over a
# table sized once at build.
# The memory tier's per-arrival reads: the pin test (a heap-position
# read), the follower attach test through the slot index, and the
# victim, the top of the resident heap.
inlined=$(go build -gcflags=-m ./internal/core ./internal/policy ./internal/tertiary ./internal/cache 2>&1 | sed -n 's/.*: can inline //p')
for fn in '(*Store).Resident' '(*LFU).Touch' '(*Manager).Pending' '(*Manager).Request' \
	'(*Tier).Resident' '(*Tier).AttachGap' '(*Tier).victim'; do
	if ! printf '%s\n' "$inlined" | grep -qxF "$fn"; then
		echo "inlining step: go build -gcflags=-m no longer reports 'can inline $fn'"
		exit 1
	fi
done

echo "== go test -short -race (quick suites + chaos harness under the race detector)"
go test -short -race ./...

echo "== go test (full suites: goldens, E18, fault integration)"
go test ./...

echo "== golden dumps (49-config sweep + staggered strides + Algorithm 1 pin + degraded mode, whose 12 -cache entries TestGoldenFaults runs as 1-member clusters through the driver), the DES cross-check over its 15-point grid against both engine builds, and the reproduction artifact (every EXPERIMENTS.md table, full-scale Figure 8 and Table 4 included), byte-identical"
# Every named test must report --- PASS: a renamed or deleted test
# would otherwise drop out of the -run regex silently.
golden() {
	pkg=$1
	shift
	golden_out=$(go test -v -run "^($(echo "$@" | tr ' ' '|'))\$" "$pkg") || {
		printf '%s\n' "$golden_out"
		exit 1
	}
	for name in "$@"; do
		if ! printf '%s\n' "$golden_out" | grep -q -- "--- PASS: $name ("; then
			echo "golden step: $name did not report --- PASS"
			exit 1
		fi
	done
}
golden ./internal/sched TestGoldenSweep TestGoldenStaggered TestGoldenAlgorithm1 TestGoldenFaults TestDESValidationAgreesWithIntervalEngine \
	TestDESValidationAgreesWithGenericEngine
golden ./internal/experiment TestReproduction TestReproductionSectionsDocumented

echo "== examples: each program's stdout equals its pinned examples/<name>/output.txt (the examples are the facade's only callers)"
example_out=$(mktemp)
trap 'rm -f "$example_out"' EXIT
for dir in examples/*/; do
	name=$(basename "$dir")
	echo "-- example: $name"
	go run "./examples/$name" >"$example_out"
	if ! diff -u "examples/$name/output.txt" "$example_out"; then
		echo "examples step: $name output differs from examples/$name/output.txt"
		exit 1
	fi
done

echo "== fuzz: Algorithm 1 orbit walk, with its span count, against the per-candidate oracle (farms up to 256 disks)"
go test -run '^$' -fuzz FuzzChooseVirtualDisks -fuzztime 10s ./internal/vdisk

echo "== fuzz: popularity draws, guide-table search against a binary search of the whole CDF (random draws, every bucket edge and just below it)"
go test -run '^$' -fuzz FuzzDiscreteSample -fuzztime 10s ./internal/rng

echo "== fuzz: Store placement against the FragmentsPerDisk oracle (Used, FreeFragments and every PlaceAt/Place verdict)"
go test -run '^$' -fuzz FuzzStorePlace -fuzztime 10s ./internal/core

echo "== fuzz: one-pass Preload against the per-object Place loop (same count and whole store: used, free, placements, residency, cursor; duplicates, out-of-range ids, invalid and mixed geometries)"
go test -run '^$' -fuzz FuzzStorePreload -fuzztime 10s ./internal/core

echo "== fuzz: memory tier against the dense reference: victim heap against a linear scan over (forward-decayed score, id) across landmark rescales (same scores, victims, pins and refusals; heap order, position table and bytes used after every call), slot table against the dense per-object tables (same returns and follower order, a slot for exactly the objects with registry state, a residency callback for every pin and unpin)"
go test -run '^$' -fuzz FuzzTierRegistry -fuzztime 10s ./internal/cache

echo "== fuzz: fault-plan parser (plan or error, never a panic or a runaway allocation)"
go test -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/fault

echo "== fuzz: Config -> Validate -> Configure -> New or NewMember -> short RunChecked (error or zero hiccups)"
go test -run '^$' -fuzz FuzzEngineConfig -fuzztime 10s ./internal/sched

echo "== fuzz: striped admission, indexed path against the full queue scan (same admissions and rejections, same Result)"
go test -run '^$' -fuzz FuzzStripedAdmission -fuzztime 10s ./internal/sched

echo "== fuzz: Algorithm 2 coalescing, waiter pass against the scan over every buffering stream (same admissions, moves and completions, same Result)"
go test -run '^$' -fuzz FuzzCoalesce -fuzztime 10s ./internal/sched

echo "== fuzz: cluster server plans (kills, restarts, whole-fleet outages) under every technique, policy, heal budget and memory tier, per-round and heal-pass invariants and run-twice determinism"
go test -run '^$' -fuzz FuzzClusterPlan -fuzztime 10s ./internal/cluster

echo "== 100x scale trajectory under the race detector (points run one after another)"
go run -race ./cmd/sweep -scale 100x -csv

echo "== cache-enabled quick sweep under the race detector (memory tier + open Zipf arrivals, each point a 1-member cluster whose driver draws them)"
go run -race ./cmd/sweep -scale quick -technique striped -stations 64 -dist 20 -zipf 0.7 -arrivals 6000 -cachemb 256 -batchwindow 8 -csv

echo "== lone-member open run under the race detector: a server: plan and member-tagged -trace on ssim's default 1-server cluster"
go run -race ./cmd/ssim -scale quick -zipf 0.7 -arrivals 6000 -cachemb 256 -batchwindow 8 -faults 'server:0@2100-2400' -trace 5 >/dev/null

echo "== 1- and 2-server cluster quick sweep per dispatch policy, under the race detector (a 1-member cluster steps the same lockstep rounds as a fleet)"
for policy in roundrobin leastloaded popularity; do
	echo "-- dispatch: $policy"
	go run -race ./cmd/sweep -servers 1,2 -dispatch "$policy" -seed 1 -csv
done

echo "== 4-server kill-one failover run per dispatch policy, under the race detector (DESIGN.md §14)"
for policy in roundrobin leastloaded popularity; do
	echo "-- dispatch: $policy"
	go run -race ./cmd/ssim -scale quick -servers 4 -dispatch "$policy" -zipf 1.1 -arrivals 6000 \
		-faults 'server:1@2100-2700' -healbudget 2 -seed 1 >/dev/null
done
echo "-- dispatch: popularity, with the memory tier (a revived member flushes its cache)"
go run -race ./cmd/ssim -scale quick -servers 4 -dispatch popularity -zipf 1.1 -arrivals 6000 -cachemb 256 -batchwindow 8 \
	-faults 'server:1@2100-2700' -healbudget 2 -seed 1 >/dev/null
echo "-- whole-fleet outage: both members of a 2-server cluster down over one window (every arrival of the span is lost and counted)"
go run -race ./cmd/ssim -scale quick -servers 2 -dispatch popularity -zipf 1.1 -arrivals 6000 \
	-faults 'server:0@2100-2400; server:1@2100-2400' >/dev/null

echo "== quick sweep per registered technique"
for tkey in $(go run ./cmd/sweep -list-techniques | awk '{print $1}'); do
	echo "-- technique: $tkey"
	go run ./cmd/sweep -scale quick -technique "$tkey" -stations 1,8 -dist 20 -csv
done
echo "-- technique: staggered (explicit stride k=1)"
go run ./cmd/sweep -scale quick -technique staggered -k 1 -stations 1,8 -dist 20 -csv

echo "== same-host perfbench A/B against the base commit (BENCHMARK.json bounds)"
go run ./cmd/bench

echo "CI OK"
