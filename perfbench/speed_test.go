package main

import "testing"

func TestYardstickAllocatesNothing(t *testing.T) {
	y := newYardstick(1)
	if n := testing.AllocsPerRun(3, func() { y.lanes[0].kernel(y.csv) }); n != 0 {
		t.Fatalf("kernel allocates %v times per run, want 0", n)
	}
}

func TestYardstickIsDeterministic(t *testing.T) {
	a, b := newYardstick(1), newYardstick(2)
	if string(a.csv) != string(b.csv) || a.lanes[0].sum != b.lanes[0].sum || b.lanes[0].sum != b.lanes[1].sum {
		t.Fatal("yardstick lanes differ in input or result")
	}
	if got := len(a.lanes[0].cols[yardCols-1]); got != yardRows {
		t.Fatalf("last column has %d values, want %d", got, yardRows)
	}
}

func TestFactorScalesToReference(t *testing.T) {
	ref, half := reading{yardRefSeconds, yardRefSeconds}, reading{2 * yardRefSeconds, 2 * yardRefSeconds}
	if f := wallFactor(ref, ref); f != 1 {
		t.Fatalf("wall factor at reference speed = %v, want 1", f)
	}
	if f := cpuFactor(half, half); f != 0.5 {
		t.Fatalf("CPU factor at half speed = %v, want 0.5", f)
	}
	if f := wallFactor(ref, reading{3 * yardRefSeconds, yardRefSeconds}); f != 0.5 {
		t.Fatalf("wall factor averaging 1x and 3x = %v, want 0.5", f)
	}
}

func TestMeasureRecordsEveryLane(t *testing.T) {
	y := newYardstick(2)
	r := y.measure()
	if r.wall <= 0 || r.cpu <= 0 || len(y.readings) != 1 {
		t.Fatalf("reading %+v, %d readings; want positive times and one reading", r, len(y.readings))
	}
}
