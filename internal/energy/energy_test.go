package energy

import (
	"math"
	"testing"
)

func TestCompute(t *testing.T) {
	rep := Compute(Counts{RFReads: 10, RFWrites: 5, BOCReads: 7, BOCWrites: 3})
	wantRF := 15 * RFAccessPJ
	if math.Abs(rep.RFDynamicPJ-wantRF) > 1e-9 {
		t.Errorf("RF = %v, want %v", rep.RFDynamicPJ, wantRF)
	}
	wantBOC := 10 * BOCAccessPJ
	if math.Abs(rep.BOCDynamicPJ-wantBOC) > 1e-9 {
		t.Errorf("BOC = %v, want %v", rep.BOCDynamicPJ, wantBOC)
	}
	if rep.TotalPJ() != rep.RFDynamicPJ+rep.OverheadPJ() {
		t.Error("total != rf + overhead")
	}
}

func TestCountsAdd(t *testing.T) {
	a := Counts{RFReads: 1, RFWrites: 2, BOCReads: 3, BOCWrites: 4}
	a.Add(Counts{RFReads: 10, RFWrites: 20, BOCReads: 30, BOCWrites: 40})
	if a.RFReads != 11 || a.RFWrites != 22 || a.BOCReads != 33 || a.BOCWrites != 44 {
		t.Errorf("Add wrong: %+v", a)
	}
}

func TestNormalized(t *testing.T) {
	base := Compute(Counts{RFReads: 100, RFWrites: 100})
	run := Compute(Counts{RFReads: 50, RFWrites: 50, BOCReads: 100, BOCWrites: 100})
	rf, ovh, err := Normalized(run, base)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rf-0.5) > 1e-9 {
		t.Errorf("rf frac = %v, want 0.5", rf)
	}
	if ovh <= 0 || ovh > 0.1 {
		t.Errorf("overhead frac = %v, want small positive", ovh)
	}
	if _, _, err := Normalized(run, Report{}); err == nil {
		t.Error("zero baseline accepted")
	}
}

// The paper's Table IV ratio: a BOC access must cost about 1.5% of a
// bank access — that asymmetry is the whole energy argument.
func TestAccessEnergyRatio(t *testing.T) {
	ratio := BOCAccessPJ / RFAccessPJ
	if ratio > 0.02 {
		t.Errorf("BOC/RF access energy ratio = %.4f, must stay << 1", ratio)
	}
}

// TestCompressedAccounting: compressed accesses are a subset of the RF
// accesses — they displace the full-width charge rather than adding to
// it, and an all-compressed run costs exactly half an uncompressed one.
func TestCompressedAccounting(t *testing.T) {
	plain := Compute(Counts{RFReads: 100, RFWrites: 50})
	half := Compute(Counts{RFReads: 100, RFWrites: 50,
		CompressedRFReads: 100, CompressedRFWrites: 50})
	if got, want := half.RFDynamicPJ, plain.RFDynamicPJ/2; got != want {
		t.Errorf("all-compressed RF energy = %v, want %v", got, want)
	}
	// A partially compressed run sits strictly between.
	part := Compute(Counts{RFReads: 100, RFWrites: 50, CompressedRFReads: 40})
	if part.RFDynamicPJ >= plain.RFDynamicPJ || part.RFDynamicPJ <= half.RFDynamicPJ {
		t.Errorf("partial compression %v not between %v and %v",
			part.RFDynamicPJ, half.RFDynamicPJ, plain.RFDynamicPJ)
	}
	// Compression never touches the overhead components.
	if half.BOCDynamicPJ != 0 || half.NetworkPJ != 0 {
		t.Errorf("compression charged BOW overheads: %+v", half)
	}
}
