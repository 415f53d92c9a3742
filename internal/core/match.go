package core

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"openmeta/internal/pbio"
	"openmeta/internal/xmltext"
	"openmeta/internal/xmlwire"
)

// The paper (§4.1.1) observes that once message structure is represented in
// XML, "schema-checking tools will be applicable to live messages received
// from other parties. This ability could be used to determine which of a
// set of structure definitions a message most closely fits." This file
// implements that capability for both XML text messages and raw NDR
// records.

// MatchScore grades how well one candidate format fits a message.
type MatchScore struct {
	// Format is the candidate.
	Format *pbio.Format
	// Score is the fit in [0, 1]; 1 means the message conforms exactly.
	Score float64
	// Exact reports that the message decodes under the format with no
	// missing, extra or malformed content.
	Exact bool
	// Detail explains the largest deduction, for diagnostics.
	Detail string
}

// ErrNoCandidates is returned when matching against an empty candidate set.
var ErrNoCandidates = errors.New("xml2wire: no candidate formats")

// MatchXML scores an XML text message against candidate formats and returns
// the scores sorted best-first.
func MatchXML(candidates []*pbio.Format, instance []byte) ([]MatchScore, error) {
	if len(candidates) == 0 {
		return nil, ErrNoCandidates
	}
	sh, err := readShape(instance)
	if err != nil {
		return nil, fmt.Errorf("xml2wire: match: %w", err)
	}
	scores := make([]MatchScore, 0, len(candidates))
	for _, f := range candidates {
		scores = append(scores, scoreXML(f, sh, instance))
	}
	sortScores(scores)
	return scores, nil
}

// shape is what scoring reads of an instance: the root's name and how many
// child elements of each name the root has, the names in order of first
// appearance.
type shape struct {
	root   string
	names  []string
	counts map[string]int
}

// readShape takes an instance's shape in one pass over its tokens.
func readShape(instance []byte) (shape, error) {
	t := xmltext.NewTokenizer(string(instance))
	sh := shape{counts: make(map[string]int)}
	for depth := 0; ; {
		tok, err := t.Next()
		switch {
		case err == io.EOF:
			return sh, nil
		case err != nil:
			return sh, err
		case tok.Kind == xmltext.EndTag:
			depth--
		case tok.Kind == xmltext.StartTag:
			depth++
			name := tok.Name.Local
			switch depth {
			case 1:
				sh.root = name
			case 2:
				if sh.counts[name] == 0 {
					sh.names = append(sh.names, name)
				}
				sh.counts[name]++
			}
		}
	}
}

func scoreXML(f *pbio.Format, sh shape, instance []byte) MatchScore {
	ms := MatchScore{Format: f}
	// An exact decode is authoritative.
	if _, err := xmlwire.DecodeRecord(f, instance); err == nil {
		ms.Score = 1
		ms.Exact = true
		return ms
	}
	// Otherwise grade structural overlap: root name, field presence and
	// multiplicity, foreign elements.
	var earned, possible float64
	possible++ // root name
	if sh.root == f.Name {
		earned++
	} else {
		ms.Detail = fmt.Sprintf("root <%s> != format %q", sh.root, f.Name)
	}
	for i := range f.Fields {
		fl := &f.Fields[i]
		if fl.IsCount() {
			continue
		}
		possible++
		n := sh.counts[fl.Name]
		switch {
		case fl.Dynamic:
			earned++ // any multiplicity fits a dynamic array
		case fl.Count > 1:
			if n == fl.Count {
				earned++
			} else if n > 0 {
				earned += 0.5
				if ms.Detail == "" {
					ms.Detail = fmt.Sprintf("field %q has %d elements, want %d", fl.Name, n, fl.Count)
				}
			} else if ms.Detail == "" {
				ms.Detail = fmt.Sprintf("field %q missing", fl.Name)
			}
		default:
			if n == 1 {
				earned++
			} else if n > 1 {
				earned += 0.5
				if ms.Detail == "" {
					ms.Detail = fmt.Sprintf("field %q repeated %d times", fl.Name, n)
				}
			} else if ms.Detail == "" {
				ms.Detail = fmt.Sprintf("field %q missing", fl.Name)
			}
		}
	}
	// Elements the format does not know cost a point each, elements named
	// for an implicit count field included.
	for _, name := range sh.names {
		if fl, ok := f.FieldByName(name); ok && !fl.IsCount() {
			continue
		}
		possible += float64(sh.counts[name])
		if ms.Detail == "" {
			ms.Detail = fmt.Sprintf("unknown element <%s>", name)
		}
	}
	if possible > 0 {
		ms.Score = earned / possible
	}
	return ms
}

// MatchBinary scores a raw NDR record against candidate formats: a
// candidate fits when the record decodes cleanly under it, graded by how
// much of the record the format accounts for (a too-small format "decodes"
// many records by ignoring their tails). Useful when a record's format ID
// is unknown — a corrupted stream, or a file whose metadata frames were
// lost.
func MatchBinary(candidates []*pbio.Format, record []byte) ([]MatchScore, error) {
	if len(candidates) == 0 {
		return nil, ErrNoCandidates
	}
	scores := make([]MatchScore, 0, len(candidates))
	for _, f := range candidates {
		scores = append(scores, scoreBinary(f, record))
	}
	sortScores(scores)
	return scores, nil
}

func scoreBinary(f *pbio.Format, record []byte) MatchScore {
	ms := MatchScore{Format: f}
	rec, err := f.Decode(record)
	if err != nil {
		ms.Detail = err.Error()
		return ms
	}
	// Re-encode and compare sizes: an exact reconstruction accounts for
	// every byte (modulo padding order, which re-encoding normalizes).
	re, err := f.Encode(rec)
	if err != nil {
		ms.Detail = err.Error()
		return ms
	}
	ratio := float64(len(re)) / float64(len(record))
	if ratio > 1 {
		ratio = 1 / ratio
	}
	ms.Score = ratio
	if len(re) == len(record) {
		ms.Exact = true
		ms.Score = 1
	} else {
		ms.Detail = fmt.Sprintf("format accounts for %d of %d bytes", len(re), len(record))
	}
	return ms
}

func sortScores(scores []MatchScore) {
	sort.SliceStable(scores, func(i, j int) bool {
		if scores[i].Exact != scores[j].Exact {
			return scores[i].Exact
		}
		return scores[i].Score > scores[j].Score
	})
}
