package analyzers

import (
	"go/token"
	"regexp"
	"strings"
)

// suppressionPrefix starts an inline waiver. Full syntax:
//
//	//acutemon:ignore AM003 reason the next reader will believe
//
// placed either on the flagged line or on the line directly above it.
const suppressionPrefix = "//acutemon:ignore"

var codeRE = regexp.MustCompile(`^AM\d{3}$`)

type suppression struct {
	code   string
	reason string
	pos    token.Position
	used   bool
}

// suppressions indexes waivers by file and line, and accumulates
// malformed ones as AM000 diagnostics (reported unconditionally — a
// waiver that names no code or gives no reason waives nothing).
type suppressions struct {
	byLine    map[string]map[int][]*suppression
	malformed []Diagnostic
}

func collectSuppressions(m *Module) *suppressions {
	s := &suppressions{byLine: map[string]map[int][]*suppression{}}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, suppressionPrefix) {
						continue
					}
					s.add(m.Fset.Position(c.Pos()), c.Text)
				}
			}
		}
	}
	return s
}

func (s *suppressions) add(pos token.Position, text string) {
	rest := strings.TrimPrefix(text, suppressionPrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		// e.g. //acutemon:ignoreAM001 — not the directive.
		return
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 || !codeRE.MatchString(fields[0]) {
		s.malformed = append(s.malformed, Diagnostic{
			Code: "AM000", File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: "malformed suppression: want //acutemon:ignore AM0xx reason",
		})
		return
	}
	if len(fields) < 2 {
		s.malformed = append(s.malformed, Diagnostic{
			Code: "AM000", File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: "suppression of " + fields[0] + " without a reason",
		})
		return
	}
	lines := s.byLine[pos.Filename]
	if lines == nil {
		lines = map[int][]*suppression{}
		s.byLine[pos.Filename] = lines
	}
	lines[pos.Line] = append(lines[pos.Line], &suppression{
		code:   fields[0],
		reason: strings.Join(fields[1:], " "),
		pos:    pos,
	})
}

// match reports whether a diagnostic with the given code at pos is
// waived by a suppression on its own line or the line above.
func (s *suppressions) match(code string, pos token.Position) (reason string, ok bool) {
	lines := s.byLine[pos.Filename]
	if lines == nil {
		return "", false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, sup := range lines[line] {
			if sup.code == code {
				sup.used = true
				return sup.reason, true
			}
		}
	}
	return "", false
}

// stale returns an AM000 diagnostic for every well-formed waiver of a
// code in ran that waived no finding: a waiver outlives its reason once
// the code it excused is fixed, and then it would hide the next finding
// on that line.
func (s *suppressions) stale(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, lines := range s.byLine {
		for _, sups := range lines {
			for _, sup := range sups {
				if sup.used || !ran[sup.code] {
					continue
				}
				out = append(out, Diagnostic{
					Code: "AM000", File: sup.pos.Filename, Line: sup.pos.Line, Col: sup.pos.Column,
					Message: "suppression of " + sup.code + " waives no finding",
				})
			}
		}
	}
	return out
}
