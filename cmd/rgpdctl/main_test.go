package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	err = func() error {
		defer func() { os.Stdout = stdout }()
		return fn()
	}()
	w.Close()
	out := <-read
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStatusIsReproducible: repeated `rgpdctl status` runs print the same
// bytes, cold-tier byte counts included. Unseeded ciphertext compresses
// to sizes that differ by a few bytes and sometimes coincide, hence three
// runs rather than two.
func TestStatusIsReproducible(t *testing.T) {
	first := captureStdout(t, cmdStatus)
	if len(first) == 0 {
		t.Fatal("status printed nothing")
	}
	for run := 2; run <= 3; run++ {
		if again := captureStdout(t, cmdStatus); !bytes.Equal(first, again) {
			t.Fatalf("status output differs between runs 1 and %d:\n--- run 1\n%s--- run %d\n%s", run, first, run, again)
		}
	}
}
