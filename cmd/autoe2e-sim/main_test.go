package main

import (
	"math"
	"strings"
	"testing"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/simtime"
)

func TestDurationFlag(t *testing.T) {
	const def = 60 * simtime.Second
	tests := []struct {
		in      float64
		want    simtime.Duration
		wantErr bool
	}{
		{0, def, false},
		{2.5, 2500 * simtime.Millisecond, false},
		{1e-6, simtime.Microsecond, false},
		{5e-7, simtime.Microsecond, false},
		{1e12, 1e12 * simtime.Second, false},
		{-1, 0, true},
		{math.Copysign(0, -1), def, false},
		{1e-7, 0, true},
		{math.NaN(), 0, true},
		{math.Inf(1), 0, true},
		{math.Inf(-1), 0, true},
		{1e16, 0, true},
	}
	for _, tt := range tests {
		got, err := durationFlag(tt.in, def)
		if (err != nil) != tt.wantErr {
			t.Errorf("durationFlag(%v) error = %v, want error %v", tt.in, err, tt.wantErr)
			continue
		}
		if err != nil {
			if !strings.Contains(err.Error(), "-duration") {
				t.Errorf("durationFlag(%v) error %q does not name the flag", tt.in, err)
			}
			continue
		}
		if got != tt.want {
			t.Errorf("durationFlag(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseMode(t *testing.T) {
	tests := []struct {
		in      string
		want    core.Mode
		wantErr bool
	}{
		{"open", core.ModeOpen, false},
		{"EUCON", core.ModeEUCON, false},
		{"AutoE2E", core.ModeAutoE2E, false},
		{"autoe2e", core.ModeAutoE2E, false},
		{"bogus", 0, true},
		{"", 0, true},
	}
	for _, tt := range tests {
		got, err := parseMode(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseMode(%q) error = %v", tt.in, err)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("parseMode(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestBuildConfigCombinations(t *testing.T) {
	valid := []struct {
		wl, sc string
		mode   core.Mode
	}{
		{"testbed", "accel", core.ModeEUCON},
		{"testbed", "restore", core.ModeAutoE2E},
		{"testbed", "none", core.ModeOpen},
		{"simulation", "accel", core.ModeAutoE2E},
		{"simulation", "restore", core.ModeAutoE2E},
		{"simulation", "none", core.ModeEUCON},
		{"synthetic", "none", core.ModeAutoE2E},
	}
	for _, tt := range valid {
		cfg, err := buildConfig(tt.wl, tt.sc, tt.mode, 1, 3, 6)
		if err != nil {
			t.Errorf("buildConfig(%q, %q): %v", tt.wl, tt.sc, err)
			continue
		}
		if cfg.System == nil || cfg.Exec == nil || cfg.Duration <= 0 {
			t.Errorf("buildConfig(%q, %q) returned incomplete config", tt.wl, tt.sc)
		}
	}
	invalid := []struct {
		wl, sc  string
		mode    core.Mode
		wantSub string
	}{
		{"testbed", "restore", core.ModeEUCON, "autoe2e"},
		{"simulation", "restore", core.ModeOpen, "autoe2e"},
		{"synthetic", "accel", core.ModeAutoE2E, "scenario none"},
		{"bogus", "accel", core.ModeAutoE2E, "unknown workload"},
		{"testbed", "bogus", core.ModeAutoE2E, "unknown scenario"},
	}
	for _, tt := range invalid {
		_, err := buildConfig(tt.wl, tt.sc, tt.mode, 1, 3, 6)
		if err == nil {
			t.Errorf("buildConfig(%q, %q, %v) accepted", tt.wl, tt.sc, tt.mode)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tt.wantSub)) {
			t.Errorf("buildConfig(%q, %q) error %q does not mention %q", tt.wl, tt.sc, err, tt.wantSub)
		}
	}
}

func TestBuildConfigSyntheticInvalidShape(t *testing.T) {
	if _, err := buildConfig("synthetic", "none", core.ModeAutoE2E, 1, 0, 12); err == nil {
		t.Fatal("zero ECUs accepted")
	}
	if _, err := buildConfig("synthetic", "none", core.ModeAutoE2E, 1, 4, 0); err == nil {
		t.Fatal("zero tasks accepted")
	}
}

func TestBuildConfigSyntheticShape(t *testing.T) {
	cfg, err := buildConfig("synthetic", "none", core.ModeEUCON, 5, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.System.NumECUs != 4 || len(cfg.System.Tasks) != 9 {
		t.Errorf("synthetic shape = %d ECUs / %d tasks, want 4 / 9",
			cfg.System.NumECUs, len(cfg.System.Tasks))
	}
}
