package main

import (
	"testing"

	"codecdb/internal/memtable"
)

func q9Row(nation string, year int64, profit float64) *memtable.RowTable {
	t := memtable.NewRowTable([]string{"nation", "o_year", "sum_profit"},
		[]memtable.ColType{memtable.ColBinary, memtable.ColInt64, memtable.ColFloat64})
	t.Append(memtable.Binary(nation), year, profit)
	return t
}

// TestRowsEqualAllowsOneRoundingUnit: a sum on a half-cent boundary may
// round either way between runs (seen on Q9 at seed 113), but a
// difference of two cents, or in any other column, is a wrong answer.
func TestRowsEqualAllowsOneRoundingUnit(t *testing.T) {
	want := q9Row("KENYA", 1998, -5129.5)
	for _, c := range []struct {
		got  *memtable.RowTable
		same bool
	}{
		{q9Row("KENYA", 1998, -5129.5), true},
		{q9Row("KENYA", 1998, -5129.51), true},
		{q9Row("KENYA", 1998, -5129.49), true},
		{q9Row("KENYA", 1998, -5129.52), false},
		{q9Row("KENYA", 1997, -5129.5), false},
		{q9Row("KENYB", 1998, -5129.5), false},
		{memtable.NewRowTable(nil, nil), false},
	} {
		if got := rowsEqual(c.got, want); got != c.same {
			t.Errorf("rowsEqual(%v, %v) = %v, want %v", c.got.Rows(), want.Rows(), got, c.same)
		}
	}
}
