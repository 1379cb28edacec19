package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// fast restricts every invocation to one tiny run on two graphs.
func fast(args ...string) []string {
	return append([]string{"-runs", "1", "-only", "channel050,ppa"}, args...)
}

func TestRunSingleTables(t *testing.T) {
	for _, table := range []string{"1", "2", "3", "4"} {
		out, errs, code := runCLI(t, fast("-table", table)...)
		if code != 0 {
			t.Fatalf("table %s: exit %d (%s)", table, code, errs)
		}
		if !strings.Contains(out, "channel050") || !strings.Contains(out, "ppa") {
			t.Errorf("table %s: rows missing:\n%s", table, out)
		}
	}
}

func TestRunJSON(t *testing.T) {
	out, errs, code := runCLI(t, fast("-table", "1", "-json")...)
	if code != 0 {
		t.Fatalf("exit %d (%s)", code, errs)
	}
	var payload struct {
		Table string
		Rows  []map[string]interface{}
	}
	if err := json.Unmarshal([]byte(out), &payload); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if payload.Table != "table1" || len(payload.Rows) != 2 {
		t.Errorf("payload %+v", payload)
	}
}

func TestRunStudies(t *testing.T) {
	studies := map[string]string{
		"-hecvariants": "hecvariants", "-dedup-ablation": "dedup-ablation",
		"-goshhec": "goshhec", "-builders": "builders", "-construct": "construct",
		"-premise": "premise", "-skew": "skew",
	}
	for study, name := range studies {
		out, errs, code := runCLI(t, fast(study)...)
		if code != 0 {
			t.Fatalf("%s: exit %d (%s)", study, code, errs)
		}
		if len(out) == 0 {
			t.Errorf("%s: empty output", study)
		}
		out, errs, code = runCLI(t, fast(study, "-json")...)
		if code != 0 {
			t.Fatalf("%s -json: exit %d (%s)", study, code, errs)
		}
		var payload struct {
			Table string
			Rows  []map[string]interface{}
		}
		if err := json.Unmarshal([]byte(out), &payload); err != nil {
			t.Fatalf("%s -json: invalid JSON: %v\n%s", study, err, out)
		}
		if payload.Table != name || len(payload.Rows) == 0 {
			t.Errorf("%s -json: table %q with %d rows", study, payload.Table, len(payload.Rows))
		}
	}
}

func TestRunAllJSON(t *testing.T) {
	// -all -json is a stream of {table, rows} objects, one per table and
	// study, with no text in between.
	out, errs, code := runCLI(t, "-all", "-json", "-runs", "1", "-only", "channel050")
	if code != 0 {
		t.Fatalf("exit %d (%s)", code, errs)
	}
	dec := json.NewDecoder(strings.NewReader(out))
	var names []string
	for {
		var payload struct {
			Table string
			Rows  []map[string]interface{}
		}
		err := dec.Decode(&payload)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("object %d: %v", len(names)+1, err)
		}
		names = append(names, payload.Table)
	}
	want := []string{"table1", "table2", "table3", "table4", "table5", "table6", "hecvariants", "dedup-ablation"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("tables %v, want %v", names, want)
	}
}

func TestRunErrors(t *testing.T) {
	if _, _, code := runCLI(t); code == 0 {
		t.Error("no arguments accepted")
	}
	if _, _, code := runCLI(t, "-table", "9"); code == 0 {
		t.Error("table 9 accepted")
	}
	if _, _, code := runCLI(t, "-nope"); code == 0 {
		t.Error("bad flag accepted")
	}
}
