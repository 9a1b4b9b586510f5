package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// suppressionCheck is the pseudo-check name under which malformed
// //hidelint:ignore comments are reported. It is not registered: it
// cannot be disabled and a malformed suppression cannot suppress
// itself.
const suppressionCheck = "suppression"

// unusedSuppressionCheck is the pseudo-check name under which stale
// //hidelint:ignore comments are reported in -unused-suppressions
// mode. Like "suppression", it is not registered.
const unusedSuppressionCheck = "unused-suppression"

const ignorePrefix = "//hidelint:ignore"

// suppressKey addresses one (file, line, check) a suppression covers.
type suppressKey struct {
	file  string
	line  int
	check string
}

// directive is one well-formed //hidelint:ignore comment, tracked so
// stale suppressions can be reported.
type directive struct {
	pos   token.Position
	check string
	used  bool
}

type suppressions struct {
	// keys maps each covered (file, line, check) to the indices of the
	// directives covering it — two directives can cover the same line
	// (a trailing comment and a standalone one above).
	keys       map[suppressKey][]int
	directives []directive
}

// collect scans every comment in files for //hidelint:ignore
// directives. A well-formed directive names a registered check and
// gives a non-empty reason; it silences that check on its own line and
// on the line directly below (so it works both as a trailing comment
// and as a standalone line above the finding). Malformed directives
// are reported into diags under the "suppression" pseudo-check.
func (s *suppressions) collect(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) {
	if s.keys == nil {
		s.keys = make(map[suppressKey][]int)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //hidelint:ignored — not a directive
				}
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) == 0 {
					*diags = append(*diags, Diagnostic{Pos: pos, Check: suppressionCheck,
						Message: "hidelint:ignore needs a check name and a reason"})
					continue
				}
				name := fields[0]
				if strings.Contains(name, ",") {
					// `//hidelint:ignore a,b reason` is a common slip; the
					// diagnostic names the fix instead of "unknown check".
					*diags = append(*diags, Diagnostic{Pos: pos, Check: suppressionCheck,
						Message: fmt.Sprintf("hidelint:ignore takes one check per directive; split %q into separate comments", name)})
					continue
				}
				if _, ok := checkByName(name); !ok {
					*diags = append(*diags, Diagnostic{Pos: pos, Check: suppressionCheck,
						Message: fmt.Sprintf("hidelint:ignore names unknown check %q", name)})
					continue
				}
				if len(fields) < 2 {
					*diags = append(*diags, Diagnostic{Pos: pos, Check: suppressionCheck,
						Message: "hidelint:ignore " + name + " needs a reason"})
					continue
				}
				if _, second := checkByName(fields[1]); second {
					// Two check names back to back: the "reason" is really a
					// second check, and one of the two would be silently
					// unsuppressed. Reported rather than guessed at.
					*diags = append(*diags, Diagnostic{Pos: pos, Check: suppressionCheck,
						Message: fmt.Sprintf("hidelint:ignore names two checks (%q, %q); use one directive per check, each with its own reason", name, fields[1])})
					continue
				}
				idx := len(s.directives)
				s.directives = append(s.directives, directive{pos: pos, check: name})
				own := suppressKey{pos.Filename, pos.Line, name}
				below := suppressKey{pos.Filename, pos.Line + 1, name}
				s.keys[own] = append(s.keys[own], idx)
				s.keys[below] = append(s.keys[below], idx)
			}
		}
	}
}

// filter drops diagnostics covered by a collected suppression and
// marks the covering directives used.
func (s *suppressions) filter(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if d.Check != suppressionCheck {
			if idxs := s.keys[suppressKey{d.Pos.Filename, d.Pos.Line, d.Check}]; len(idxs) > 0 {
				for _, i := range idxs {
					s.directives[i].used = true
				}
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// unused reports every well-formed directive that suppressed nothing,
// restricted to directives whose check actually ran (ranChecks) — a
// partial-check run cannot prove a suppression for an unselected
// check stale.
func (s *suppressions) unused(ranChecks []Check) []Diagnostic {
	ran := make(map[string]bool, len(ranChecks))
	for _, c := range ranChecks {
		ran[c.Name] = true
	}
	var out []Diagnostic
	for _, d := range s.directives {
		if d.used || !ran[d.check] {
			continue
		}
		out = append(out, Diagnostic{Pos: d.pos, Check: unusedSuppressionCheck,
			Message: fmt.Sprintf("hidelint:ignore %s matches no finding; remove the stale suppression", d.check)})
	}
	return out
}
