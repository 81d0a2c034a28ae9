package live

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"time"

	"kepler/internal/mrt"
	"kepler/internal/simulate"
	"kepler/internal/slogx"
	"kepler/internal/topology"
)

// SyntheticConfig parameterizes the world-driven soak generator.
type SyntheticConfig struct {
	// Seed drives schedule and rendering noise; each cycle derives its own
	// sub-seed so windows differ.
	Seed int64
	// Start is the stream time of the first cycle.
	Start time.Time
	// Window is the length of one rendered scenario cycle (default 7 days).
	Window time.Duration
	// Cycles bounds the number of rendered windows; 0 renders forever.
	Cycles int

	// Per-window incident mix (defaults: 1 facility, 1 IXP, 3 links, 1 AS).
	FacilityOutages int
	IXPOutages      int
	LinkOutages     int
	ASOutages       int
	// PartialFraction of infrastructure outages are partial (default 0.15).
	PartialFraction float64
	// SessionResets per window injects collector feed noise (default 2).
	SessionResets int

	// OnWindow, if set, observes every rendered window (result plus its
	// stream-time bounds) before its records are streamed. It runs on the
	// consuming goroutine; a daemon uses it to rebuild the simulated
	// data-plane substrate its probe backend measures against.
	OnWindow func(res *simulate.Result, start, end time.Time)

	// Logger receives window render reports at debug level. Nil discards
	// them.
	Logger *slog.Logger
}

func (c *SyntheticConfig) defaults() {
	if c.Window <= 0 {
		c.Window = 7 * 24 * time.Hour
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.FacilityOutages == 0 && c.IXPOutages == 0 && c.LinkOutages == 0 && c.ASOutages == 0 {
		c.FacilityOutages, c.IXPOutages, c.LinkOutages, c.ASOutages = 1, 1, 3, 1
	}
	if c.PartialFraction == 0 {
		c.PartialFraction = 0.15
	}
	if c.SessionResets == 0 {
		c.SessionResets = 2
	}
}

// Synthetic generates an endless, time-continuous record stream by
// rendering scenario windows over a synthetic world on demand: each cycle
// draws a fresh incident schedule, renders the resulting BGP dynamics, and
// picks up exactly where the previous window ended. It exists for soak
// testing the live service layer — a daemon fed by Synthetic exercises
// ingestion, bin closes, event fan-out and API serving indefinitely without
// an archive on disk.
type Synthetic struct {
	world *topology.World
	cfg   SyntheticConfig

	cycle    int
	buf      []*mrt.Record
	pos      int
	consumed uint64 // records returned over all windows
}

// NewSynthetic builds the generator over a world.
func NewSynthetic(world *topology.World, cfg SyntheticConfig) *Synthetic {
	cfg.defaults()
	if cfg.Logger == nil {
		cfg.Logger = slogx.Discard()
	}
	return &Synthetic{world: world, cfg: cfg}
}

// render produces the next window. Rendering recomputes routing tables and
// is CPU-heavy, so the context is threaded into the renderer itself: a
// cancelled daemon aborts mid-render rather than finishing a multi-day
// window first.
func (s *Synthetic) render(ctx context.Context) error {
	start := s.cfg.Start.Add(time.Duration(s.cycle) * s.cfg.Window)
	end := start.Add(s.cfg.Window)
	seed := s.cfg.Seed + int64(s.cycle)*1009 // distinct schedule per window

	// Incidents keep clear of the window edges so every outage both starts
	// and restores inside its own cycle.
	events := simulate.GenerateSchedule(s.world, simulate.ScheduleConfig{
		Seed:            seed + 1,
		Start:           start.Add(s.cfg.Window / 4),
		End:             end.Add(-s.cfg.Window / 10),
		FacilityOutages: s.cfg.FacilityOutages,
		IXPOutages:      s.cfg.IXPOutages,
		LinkOutages:     s.cfg.LinkOutages,
		ASOutages:       s.cfg.ASOutages,
		PartialFraction: s.cfg.PartialFraction,
		MinMembers:      6,
	})
	res, err := simulate.Render(s.world, events, start, end, simulate.RenderConfig{
		Seed: seed + 2, SessionResets: s.cfg.SessionResets, StickyFraction: 0.05,
		Ctx: ctx,
	})
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("live: render cycle %d: %w", s.cycle, err)
	}
	if s.cfg.OnWindow != nil {
		s.cfg.OnWindow(res, start, end)
	}
	s.cfg.Logger.Debug("scenario window rendered", "cycle", s.cycle,
		"start", start, "end", end, "records", len(res.Records))
	s.buf = res.Records
	s.pos = 0
	s.cycle++
	return nil
}

// Next implements Source.
func (s *Synthetic) Next(ctx context.Context) (*mrt.Record, error) {
	for s.pos >= len(s.buf) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s.cfg.Cycles > 0 && s.cycle >= s.cfg.Cycles {
			return nil, io.EOF
		}
		if err := s.render(ctx); err != nil {
			return nil, err
		}
	}
	rec := s.buf[s.pos]
	s.pos++
	s.consumed++
	return rec, nil
}

// Cursor implements Resumable: the position of the next unread record,
// located by (window, in-window offset) so Seek re-renders exactly one
// window instead of replaying the whole stream.
func (s *Synthetic) Cursor() Cursor {
	window := s.cycle
	if len(s.buf) > 0 {
		window = s.cycle - 1 // buf holds the window render already advanced past
	}
	return Cursor{Records: s.consumed, Window: window, WindowPos: s.pos}
}

// Seek implements Resumable: window schedules and renders derive
// deterministically from the configured seed and the window index, so
// resuming costs one render of the cursor's window — bounded, regardless
// of how long the previous process soaked. Must precede the first Next.
func (s *Synthetic) Seek(ctx context.Context, c Cursor) error {
	if s.consumed != 0 || len(s.buf) > 0 {
		return fmt.Errorf("live: synthetic seek after streaming started")
	}
	if c.Window < 0 || c.WindowPos < 0 {
		return fmt.Errorf("live: synthetic seek to invalid cursor %+v", c)
	}
	s.cycle = c.Window
	if err := s.render(ctx); err != nil {
		return err
	}
	if c.WindowPos > len(s.buf) {
		return fmt.Errorf("live: synthetic seek offset %d past window %d's %d records (was the world seed changed?)",
			c.WindowPos, c.Window, len(s.buf))
	}
	s.pos = c.WindowPos
	s.consumed = c.Records
	return nil
}
