package isa

import (
	"strings"
	"testing"
)

func TestOpcodeStrings(t *testing.T) {
	cases := map[Opcode]string{
		NOP:    "nop",
		ICONST: "iconst",
		INVOKE: "invoke",
		PUTREF: "putref",
		HALT:   "halt",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d: got %q want %q", uint8(op), got, want)
		}
	}
	if got := Opcode(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown opcode string %q", got)
	}
}

func TestOpcodeClassification(t *testing.T) {
	if !GOTO.IsBranch() || !IFEQ.IsBranch() || IADD.IsBranch() {
		t.Fatal("branch classification wrong")
	}
	if !RETURN.IsReturn() || !IRETURN.IsReturn() || GOTO.IsReturn() {
		t.Fatal("return classification wrong")
	}
	if !NOP.Valid() || Opcode(250).Valid() {
		t.Fatal("validity classification wrong")
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	code := []Instr{
		{Op: ICONST, A: 5},
		{Op: ICONST, A: 7},
		{Op: IADD},
		{Op: IRETURN},
	}
	if err := Validate(code); err != nil {
		t.Fatalf("valid code rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		code []Instr
	}{
		{"empty", nil},
		{"falls off end", []Instr{{Op: NOP}}},
		{"bad branch target", []Instr{{Op: GOTO, A: 9}, {Op: RETURN}}},
		{"negative branch", []Instr{{Op: IFEQ, A: -1}, {Op: RETURN}}},
		{"invalid opcode", []Instr{{Op: Opcode(240)}, {Op: RETURN}}},
	}
	for _, c := range cases {
		if err := Validate(c.code); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestValidateAllowsGotoTail(t *testing.T) {
	code := []Instr{
		{Op: NOP},
		{Op: GOTO, A: 0},
	}
	if err := Validate(code); err != nil {
		t.Fatalf("loop with goto tail rejected: %v", err)
	}
}

func TestInstrString(t *testing.T) {
	if got := (Instr{Op: GETSTATIC, A: 2, B: 1}).String(); got != "getstatic 2.1" {
		t.Errorf("getstatic format: %q", got)
	}
	if got := (Instr{Op: IADD}).String(); got != "iadd" {
		t.Errorf("iadd format: %q", got)
	}
	if got := (Instr{Op: ILOAD, A: 3}).String(); got != "iload 3" {
		t.Errorf("iload format: %q", got)
	}
}
