// Package lint is keplervet: a suite of project-specific static analyzers
// that mechanically enforce the repository's determinism and concurrency
// contracts. The load-bearing promise of the whole reproduction — detection
// output is a pure function of the record stream, byte-for-byte identical
// across constructors, restarts and async probing —
// is guarded at runtime by equivalence tests; these analyzers catch the
// known ways of breaking it at compile review time instead:
//
//   - maporder: unsorted map iteration feeding order-sensitive output
//     (slice appends, hook/event writes, encoders, probe submission)
//   - walltime: wall-clock reads (time.Now/Since/Sleep/...) inside
//     detection packages, which must run on stream time
//   - hookbarrier: lifecycle hook invocations from functions not reachable
//     exclusively through the bin-close/flush barrier path
//   - atomicstats: metrics *Stats counter fields that are not atomic, or
//     atomic counters accessed non-atomically
//   - syncclose: os.File WAL/checkpoint writes in internal/store on paths
//     that can return without fsync-or-error
//
// A diagnostic can be suppressed with a same-line (or directly preceding
// full-line) comment:
//
//	//keplervet:ignore <analyzer> <reason>
//
// The reason is mandatory, and an ignore that suppresses nothing is itself
// reported — stale allowlists rot into blind spots otherwise.
package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"
)

// An Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore comments.
	Name string
	// Doc is a one-paragraph description of the enforced contract.
	Doc string
	// Scope reports whether the analyzer applies to a package import
	// path. The driver consults it; tests bypass it via Options.
	Scope func(importPath string) bool
	// Run analyzes one package and reports diagnostics through the pass.
	Run func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, serializable for the -json output mode.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Options configures a Run.
type Options struct {
	// AllPackages runs every analyzer on every package, ignoring
	// Analyzer.Scope. Golden-file tests use it to point analyzers at
	// testdata packages whose import paths are outside the real scope.
	AllPackages bool
	// Analyzers restricts the run to the named analyzers (nil = all).
	Analyzers []string
}

// ignoreTag is the suppression comment marker.
const ignoreTag = "//keplervet:ignore"

// ignoreDirective is one parsed suppression comment.
type ignoreDirective struct {
	file     string
	line     int // line the directive suppresses (its own, or the next for full-line comments)
	analyzer string
	pos      token.Pos
	used     bool
}

// Run executes the analyzers over the packages, applies suppression
// comments, reports unused or malformed ignores, and returns the surviving
// diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer, opts Options) []Diagnostic {
	selected := analyzers
	if opts.Analyzers != nil {
		byName := make(map[string]bool, len(opts.Analyzers))
		for _, n := range opts.Analyzers {
			byName[n] = true
		}
		selected = nil
		for _, a := range analyzers {
			if byName[a.Name] {
				selected = append(selected, a)
			}
		}
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range selected {
			if !opts.AllPackages && a.Scope != nil && !a.Scope(pkg.ImportPath) {
				continue
			}
			a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
		}
	}

	directives, malformed := collectIgnores(pkgs, known)
	diags = append(diags, malformed...)
	diags = applyIgnores(diags, directives)
	diags = dedup(diags)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// collectIgnores parses every //keplervet:ignore comment in the packages.
// Malformed directives (missing analyzer, unknown analyzer, missing
// reason) are returned as diagnostics of the pseudo-analyzer "keplervet".
func collectIgnores(pkgs []*Package, known map[string]bool) ([]*ignoreDirective, []Diagnostic) {
	var dirs []*ignoreDirective
	var malformed []Diagnostic
	report := func(fset *token.FileSet, pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		malformed = append(malformed, Diagnostic{
			Analyzer: "keplervet", File: p.Filename, Line: p.Line, Col: p.Column,
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignoreTag) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, ignoreTag)
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						report(pkg.Fset, c.Pos(), "malformed ignore: missing analyzer name (want %s <analyzer> <reason>)", ignoreTag)
						continue
					}
					if !known[fields[0]] {
						report(pkg.Fset, c.Pos(), "ignore names unknown analyzer %q", fields[0])
						continue
					}
					if len(fields) < 2 {
						report(pkg.Fset, c.Pos(), "ignore for %q has no reason; suppressions must be justified", fields[0])
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					line := pos.Line
					// A comment on its own line suppresses the next line;
					// a trailing comment suppresses its own.
					if standsAlone(pkg.Sources[pos.Filename], pos) {
						line++
					}
					dirs = append(dirs, &ignoreDirective{
						file: pos.Filename, line: line, analyzer: fields[0], pos: c.Pos(),
					})
				}
			}
		}
	}
	return dirs, malformed
}

// standsAlone reports whether the comment at pos has nothing but
// whitespace before it on its source line.
func standsAlone(src []byte, pos token.Position) bool {
	if src == nil {
		return false
	}
	// Offset points at the '/' of the comment; scan back to the newline.
	for i := pos.Offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r':
		default:
			return false
		}
	}
	return true // first line of the file
}

// applyIgnores drops diagnostics matched by a directive and appends an
// unused-ignore diagnostic for every directive that matched nothing.
func applyIgnores(diags []Diagnostic, dirs []*ignoreDirective) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, dir := range dirs {
			if dir.analyzer == d.Analyzer && dir.file == d.File && dir.line == d.Line {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, dir := range dirs {
		if !dir.used {
			kept = append(kept, Diagnostic{
				Analyzer: "keplervet", File: dir.file, Line: dir.line, Col: 1,
				Message: fmt.Sprintf("unused ignore: no %s diagnostic here to suppress", dir.analyzer),
			})
		}
	}
	return kept
}

// dedup drops exact repeats: a nested map range reports the same effect
// once per enclosing loop.
func dedup(diags []Diagnostic) []Diagnostic {
	seen := make(map[Diagnostic]bool, len(diags))
	var out []Diagnostic
	for _, d := range diags {
		if seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}

// WriteJSON renders diagnostics as a JSON array (the machine-readable
// output mode behind `keplervet -json`). An empty run encodes as [].
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(diags)
}
