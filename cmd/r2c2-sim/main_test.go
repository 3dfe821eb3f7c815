package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke drives the full Figure 10/11 pipeline at a tiny scale and
// checks the report structure, not the numbers.
func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig10", "-k", "3", "-dims", "2", "-flows", "25", "-tau", "20"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"topology: 3-ary 2-cube (9 nodes)", "R2C2", "TCP", "PFQ"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunFaults replays a tiny explicit schedule through the fault sweep;
// deterministic, so exact structure is asserted.
func TestRunFaults(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-faults", "down@10ms:0-1/2ms;crash@40ms:5/2ms", "-csv"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"completed,", "reroutes,2", "expected waves,2"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFaultsBadSchedule(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-faults", "down@10ms:0-99/2ms"}, &out); err == nil {
		t.Fatal("schedule with out-of-range node accepted")
	}
}

// TestRunRejectsBadFlags: every flag value a harness cannot run must come
// back as an error naming the problem, before any simulation starts —
// never as a panic from deep inside topology, trafficgen or experiments.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-k", "1"}, "k >= 2"},
		{[]string{"-dims", "0"}, "dims >= 1"},
		{[]string{"-k", "8", "-dims", "7"}, "16-bit addresses"},
		{[]string{"-flows", "0"}, "at least one flow"},
		{[]string{"-tau", "0"}, "-tau"},
		{[]string{"-tau", "-3"}, "-tau"},
		{[]string{"-tau", "NaN"}, "-tau"},
		{[]string{"-faults", "gen:1", "-k", "1"}, "k >= 2"},
		{[]string{"-faults", "gen:1", "-k", "300"}, "16-bit addresses"},
		{[]string{"-interrack", "-racks", "1"}, "at least two racks"},
		{[]string{"-interrack", "-bridges", "0"}, "at least one bridge"},
		{[]string{"-interrack", "-k", "2", "-bridges", "5"}, "exceed the 4 nodes"},
		{[]string{"-interrack", "-k", "2", "-racks", "2"}, "duplicate edge"},
		{[]string{"-interrack", "-flows", "0"}, "at least one flow"},
		{[]string{"-interrack", "-tau", "0"}, "-tau"},
		{[]string{"-interrack", "-horizon", "-1ms"}, "horizon must be positive"},
		{[]string{"-interrack", "-k", "1"}, "k >= 2"},
	} {
		var out bytes.Buffer
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%v: panicked: %v", tc.args, p)
				}
			}()
			return run(tc.args, &out)
		}()
		if err == nil {
			t.Errorf("%v: accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %q does not mention %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed output before rejecting the flags:\n%s", tc.args, out.String())
		}
	}
}

// TestRunProfiles writes both profiles for a tiny run and checks they are
// non-empty files.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	args := []string{"-fig17", "-k", "3", "-dims", "2", "-flows", "10", "-tau", "20",
		"-cpuprofile", cpu, "-memprofile", mem}
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}
