// Package slogx holds the one log/slog helper the module needs and Go 1.22
// (what go.mod and CI pin) does not have: a logger that drops everything.
// slog.DiscardHandler is Go 1.24.
package slogx

import (
	"context"
	"log/slog"
)

// Discard returns the logger a component falls back to when it is given
// none. Enabled is false at every level, so a call costs no formatting.
func Discard() *slog.Logger { return slog.New(discard{}) }

type discard struct{}

func (discard) Enabled(context.Context, slog.Level) bool  { return false }
func (discard) Handle(context.Context, slog.Record) error { return nil }
func (d discard) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discard) WithGroup(string) slog.Handler           { return d }
