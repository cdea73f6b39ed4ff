// The race detector keeps shadow memory for freed heap resident, so
// returning memory to the OS cannot lower the resident set under it and
// this test only holds without it. The benchmark never runs with it.

//go:build !race

package main

import "testing"

// TestPeakRSSIgnoresEarlierWork checks that a workload's peak_rss_mb is
// its own: a heavy allocation earlier in the process must not show in
// it.
func TestPeakRSSIgnoresEarlierWork(t *testing.T) {
	w := tiny(t, "route-cold")
	peak := func() float64 {
		res, err := plainRun(w, 1, 30)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics["peak_rss_mb"].Value
	}
	alone := peak()

	const ballastMB = 128
	hwm := func() int64 {
		ballast := make([]byte, ballastMB<<20)
		for i := 0; i < len(ballast); i += 4096 {
			ballast[i] = 1
		}
		hwm, err := peakRSS()
		if err != nil {
			t.Fatal(err)
		}
		return hwm
	}()
	if float64(hwm)/(1<<20) < ballastMB {
		t.Fatalf("ballast did not raise the peak: %d bytes", hwm)
	}
	after := peak()
	if after > alone+16 || after >= ballastMB {
		t.Errorf("peak_rss_mb after a %d MiB allocation is %.1f, alone %.1f", ballastMB, after, alone)
	}
}
