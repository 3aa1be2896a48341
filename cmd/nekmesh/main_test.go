package main

import (
	"errors"
	"flag"
	"testing"

	"repro/internal/exp"
)

// buildArgs parses args as nekmesh's command line and builds the mesh.
func buildArgs(t *testing.T, args ...string) (int, error) {
	t.Helper()
	fs := flag.NewFlagSet("nekmesh", flag.ContinueOnError)
	c := newCLI(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	mesh, err := c.build()
	if err != nil {
		return 0, err
	}
	return mesh.NumElems(), nil
}

// TestBuildRejectsBadCounts pins the exit-2 surface: a count below 1 is a
// *exp.FlagError naming the flag, returned before meshgen (which panics on it)
// runs, and an unknown geometry is an error too.
func TestBuildRejectsBadCounts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-np", "0"}, "np"},
		{[]string{"-np", "-4"}, "np"},
		{[]string{"-nz", "0"}, "nz"},
		{[]string{"-geom", "cyl", "-nr", "0"}, "nr"},
		{[]string{"-geom", "cyl", "-nt", "0"}, "nt"},
		{[]string{"-geom", "box", "-nx", "0"}, "nx"},
		{[]string{"-geom", "box", "-ny", "-1"}, "ny"},
	} {
		_, err := buildArgs(t, tc.args...)
		var fe *exp.FlagError
		if !errors.As(err, &fe) || fe.Flag != tc.flag {
			t.Errorf("%v: error %v, want an *exp.FlagError for -%s", tc.args, err, tc.flag)
		}
	}
	if _, err := buildArgs(t, "-geom", "sphere"); err == nil {
		t.Error("unknown geometry built a mesh")
	}
}

// TestBuildGeometries checks that valid flags build each geometry's
// element count.
func TestBuildGeometries(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-geom", "box", "-nx", "2", "-ny", "3", "-nz", "4", "-np", "1"}, 2 * 3 * 4},
		{[]string{"-geom", "cyl", "-nr", "2", "-nt", "8", "-nz", "3", "-np", "4"}, 2 * 8 * 3},
	} {
		n, err := buildArgs(t, tc.args...)
		if err != nil || n != tc.want {
			t.Errorf("%v: %d elements, %v; want %d", tc.args, n, err, tc.want)
		}
	}
}
