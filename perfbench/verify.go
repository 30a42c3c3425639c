package main

import (
	"fmt"
	"strings"

	repro "repro"
	"repro/internal/pairwise"
)

func degap(row string) string { return strings.ReplaceAll(row, "-", "") }

// checkRows reports whether aligned rows degap to the input sequences.
func checkRows(rows []string, seqs []*repro.Sequence) error {
	if len(rows) != len(seqs) {
		return fmt.Errorf("%d rows for %d sequences", len(rows), len(seqs))
	}
	for i, r := range rows {
		if got, want := degap(r), seqs[i].String(); got != want {
			return fmt.Errorf("row %d degaps to %d residues that differ from input %q (%d residues)",
				i, len(got), seqs[i].Name(), len(want))
		}
	}
	return nil
}

// verifyTriple checks one exact three-way result: its score equals want
// (an independent exact kernel's optimum), its rows degap to the inputs,
// and the rows rescore under the scheme to the reported score.
func verifyTriple(tr repro.Triple, res *repro.Result, want int32, sch *repro.Scheme) error {
	if res == nil || res.Alignment == nil {
		return fmt.Errorf("no alignment")
	}
	if res.Score != want {
		return fmt.Errorf("score %d, exact reference %d", res.Score, want)
	}
	ra, rb, rc := res.Rows()
	if err := checkRows([]string{ra, rb, rc}, []*repro.Sequence{tr.A, tr.B, tr.C}); err != nil {
		return err
	}
	if got := rescore(res.Alignment, sch); got != res.Score {
		return fmt.Errorf("rows rescore to %d, reported %d", got, res.Score)
	}
	return nil
}

func rescore(a *repro.Alignment, sch *repro.Scheme) int32 {
	if sch.Affine() {
		return a.SPScoreAffine(sch)
	}
	return a.SPScore(sch)
}

// verifyMSA checks one progressive MSA: rows degap to the family, the
// score equals the sum-of-pairs rescoring of the rows, and it does not
// exceed the Carrillo–Lipman upper bound.
func verifyMSA(fam []*repro.Sequence, res *repro.MSAResult, sch *repro.Scheme) error {
	if res == nil || res.Profile == nil {
		return fmt.Errorf("no profile")
	}
	if err := checkRows(res.Profile.RowStrings(), fam); err != nil {
		return err
	}
	if got := res.Profile.SPScoreFor(sch); got != res.Score {
		return fmt.Errorf("rows rescore to %d, reported %d", got, res.Score)
	}
	if res.Score > res.UpperBound {
		return fmt.Errorf("score %d above the upper bound %d", res.Score, res.UpperBound)
	}
	return nil
}

// verifyServed checks a served alignment against the library's answer for
// the same triple: the same score and the same rows.
func verifyServed(score int32, rows [3]string, lib *repro.Result) error {
	if score != lib.Score {
		return fmt.Errorf("served score %d, library %d", score, lib.Score)
	}
	ra, rb, rc := lib.Rows()
	if rows != [3]string{ra, rb, rc} {
		return fmt.Errorf("served rows differ from the library's")
	}
	return nil
}

// pairBound is the sum of the optimal pairwise scores of a family under
// a linear-gap scheme — the Carrillo–Lipman upper bound on its SP score.
func pairBound(seqs []*repro.Sequence, sch *repro.Scheme) int32 {
	var total int32
	for i := range seqs {
		for j := i + 1; j < len(seqs); j++ {
			total += pairwise.GlobalScore(seqs[i].Codes(), seqs[j].Codes(), sch)
		}
	}
	return total
}
