package experiment

import "testing"

// TestE19BeatsDiskCeiling pins the tentpole claim: on a Zipf(0.7)
// open workload, at least one cached configuration must deliver more
// displays/hour than the pure-disk baseline — followers ride existing
// streams and prefixes absorb startup, so throughput escapes the D/M
// stream ceiling.
func TestE19BeatsDiskCeiling(t *testing.T) {
	baseline, err := E19Run(0.7, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := E19Run(0.7, 1024, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Result.Throughput() <= baseline.Result.Throughput() {
		t.Errorf("cached %0.1f/hour did not beat disk-only %0.1f/hour",
			cached.Result.Throughput(), baseline.Result.Throughput())
	}
	if cached.Result.CacheHitRate() <= 0 {
		t.Error("cached run reports zero hit rate")
	}
	if cached.Result.Latency.Mean() >= baseline.Result.Latency.Mean() {
		t.Errorf("cached startup %0.1fs not below disk-only %0.1fs",
			cached.Result.Latency.Mean(), baseline.Result.Latency.Mean())
	}
	if baseline.Result.ServedFromCache != 0 || baseline.Result.CacheHitBytes != 0 {
		t.Errorf("disk-only baseline touched the cache: %+v", baseline)
	}
}

// TestE19Determinism: same seed, same sweep cell, same row.
func TestE19Determinism(t *testing.T) {
	a, err := E19Run(1.1, 256, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := E19Run(1.1, 256, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("E19 cell not deterministic:\n  %+v\n  %+v", a, b)
	}
}
