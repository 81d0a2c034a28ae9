package main

import (
	"strings"
	"testing"
)

func TestValidateServeFlags(t *testing.T) {
	cases := []struct {
		name      string
		readCache int
		wantErr   string // substring; empty means valid
	}{
		{name: "defaults", readCache: 4096},
		{name: "small cache", readCache: 1},
		{name: "zero cache", readCache: 0,
			wantErr: "-read-cache must be positive, got 0"},
		{name: "negative cache", readCache: -5,
			wantErr: "-read-cache must be positive, got -5"},
		{name: "absurd cache", readCache: 1 << 30,
			wantErr: "-read-cache must be at most"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateServeFlags(tc.readCache)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}
