package main

import "testing"

func TestSelfCheck(t *testing.T) {
	if err := selfCheck(); err != nil {
		t.Fatal(err)
	}
}
