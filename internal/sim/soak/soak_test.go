package soak

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// shortConfig is the CI-sized soak: the full adversarial mix — random
// failures, deadline storms, evolutions, ad-hoc changes, disk-fault
// windows, crashes, and clean reopens — shrunk to finish in about a
// second even under -race.
func shortConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Instances = 8
	cfg.Steps = 800
	cfg.EvolveEvery = 250
	cfg.AdHocEvery = 60
	cfg.ReopenEvery = 270
	cfg.CrashEvery = 330
	return cfg
}

// TestSoakShortAdversarialMix is the deterministic-seed soak CI runs
// under -race: every adversarial path must actually fire, and Run only
// returns a Result when every invariant held throughout (no lost work
// items, no wedged instances, no acknowledged-write loss, exact state
// equality across every reopen, full drain to completion).
func TestSoakShortAdversarialMix(t *testing.T) {
	res, err := Run(context.Background(), shortConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: %s", res)
	if res.Finished == 0 || res.Failures == 0 || res.Timeouts == 0 || res.Retries == 0 {
		t.Fatalf("exception paths not exercised: %s", res)
	}
	if res.FaultWindows == 0 || res.Heals == 0 || res.Crashes == 0 || res.Reopens == 0 {
		t.Fatalf("durability paths not exercised: %s", res)
	}
	if res.Evolutions == 0 || res.AdHocs == 0 {
		t.Fatalf("change paths not exercised: %s", res)
	}
}

// TestSoakDeterministicPerSeed: the soak is driven by a seeded PRNG and
// a logical clock, and nothing a recovery may reorder — shards replay
// concurrently — names anything the driver picks by, so two runs of one
// config exercise exactly the same scenario: every counter, the metrics
// summary and the final-state digest are identical.
func TestSoakDeterministicPerSeed(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				cfg := shortConfig(seed)
				cfg.Shards = shards
				first, err := Run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				second, err := Run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, second) {
					t.Fatalf("same seed diverged:\n  %s\n  %s", first, second)
				}
			})
		}
	}
}

// TestSoakFullMix runs the default-sized scenario (the same one
// `adeptctl sim` runs); skipped under -short.
func TestSoakFullMix(t *testing.T) {
	if testing.Short() {
		t.Skip("full soak skipped in -short mode")
	}
	res, err := Run(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: %s", res)
	if res.Skips == 0 || res.Suspends == 0 {
		t.Fatalf("compensation variants not exercised: %s", res)
	}
	if res.WedgedSubmits == 0 {
		t.Fatalf("degraded-mode paths not exercised: %s", res)
	}
}
