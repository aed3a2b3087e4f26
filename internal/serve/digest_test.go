package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mse/internal/core"
	"mse/internal/synth"
)

// updateDigests rewrites the committed digests from the current code
// instead of checking against them:
//
//	go test ./internal/serve -run TestExtractDigests -update
//
// Only do so for a change that is meant to alter extraction output, and
// say so in the commit.
var updateDigests = flag.Bool("update", false, "rewrite "+digestFile+" from the current extraction output")

const digestFile = "testdata/extract_digests.txt"

// digestEngine is one engine of the digest bed under its registry name.
type digestEngine struct {
	name string
	e    *synth.Engine
}

// digestBed is the paper-scale 2006 test bed followed by one
// multi-section engine per synth.Features field, that field switched on
// (true, or a nesting depth of 3) and every other off.  The feature
// engines are found by reflection, so a new feature joins the bed (and
// fails the check until its digests are committed) without editing this
// test.
func digestBed() []digestEngine {
	cfg := synth.DefaultConfig()
	var bed []digestEngine
	for i, e := range synth.GenerateTestbed(cfg) {
		bed = append(bed, digestEngine{fmt.Sprintf("e%03d", i), e})
	}
	ft := reflect.TypeOf(synth.Features{})
	for i := 0; i < ft.NumField(); i++ {
		var f synth.Features
		switch v := reflect.ValueOf(&f).Elem().Field(i); v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int:
			v.SetInt(3)
		default:
			panic("digestBed: unhandled synth.Features field kind " + v.Kind().String())
		}
		tag, _, _ := strings.Cut(ft.Field(i).Tag.Get("json"), ",")
		bed = append(bed, digestEngine{"f-" + tag, synth.NewEngineFeatured(cfg.Seed, cfg.Engines+i, true, f)})
	}
	return bed
}

// TestExtractDigests is the golden oracle for extraction output: one
// SHA-256 per /extract body (annotation included, taken from
// Registry.ExtractCached) for pages 5-9 of every engine of the digest bed
// and of its Drifted() redesign, plus one per engine for the wrapper JSON
// built from pages 0-4.  The registry has no result cache, so every call
// runs the pooled parse/render/apply pipeline; the whole sweep runs twice
// back to back, and the second pass (on pools the first pass warmed with
// other pages) must reproduce the first, so stale pooled state cannot
// hide behind a cold pool.  After the sweeps every registered wrapper must
// re-marshal to the bytes it was added as: compilation and application
// leave the wrapper's serialized form untouched.  -short checks a prefix
// of the bed.
func TestExtractDigests(t *testing.T) {
	bed := digestBed()
	if testing.Short() && !*updateDigests {
		bed = bed[:12]
	}
	opts := core.DefaultOptions()
	reg := NewRegistry(opts)
	ctx := context.Background()

	var keys []string
	got := map[string]string{}
	wrapperJSON := map[string][]byte{}
	record := func(key string, body []byte) {
		sum := sha256.Sum256(body)
		keys = append(keys, key)
		got[key] = hex.EncodeToString(sum[:])
	}
	for _, de := range bed {
		var samples []*core.SamplePage
		for q := 0; q < 5; q++ {
			gp := de.e.Page(q)
			samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		ew, err := core.BuildWrapper(samples, opts)
		if err != nil {
			t.Fatalf("%s: building wrapper: %v", de.name, err)
		}
		data, err := json.Marshal(ew)
		if err != nil {
			t.Fatalf("%s: marshal wrapper: %v", de.name, err)
		}
		record(de.name+"/wrapper", data)
		wrapperJSON[de.name] = data
		if err := reg.Add(de.name, data); err != nil {
			t.Fatalf("%s: %v", de.name, err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, de := range bed {
			for _, v := range []struct {
				kind string
				e    *synth.Engine
			}{{"page", de.e}, {"drifted", de.e.Drifted()}} {
				for q := 5; q < 10; q++ {
					gp := v.e.Page(q)
					body, _, err := reg.ExtractCached(ctx, de.name, gp.HTML, gp.Query)
					if err != nil {
						t.Fatalf("%s %s %d: %v", de.name, v.kind, q, err)
					}
					key := fmt.Sprintf("%s/%s%d", de.name, v.kind, q)
					if pass == 0 {
						record(key, body)
					} else if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != got[key] {
						t.Errorf("%s: second pooled pass differs from the first (stale pooled state)", key)
					}
				}
			}
		}
	}
	for _, de := range bed {
		e, ok := reg.get(de.name)
		if !ok {
			t.Fatalf("%s: not registered", de.name)
		}
		data, err := json.Marshal(e.ew)
		if err != nil {
			t.Fatalf("%s: re-marshal wrapper: %v", de.name, err)
		}
		if !bytes.Equal(data, wrapperJSON[de.name]) {
			t.Errorf("%s: the wrapper's JSON changed across compilation and extraction", de.name)
		}
	}
	if t.Failed() {
		return
	}

	if *updateDigests {
		var buf bytes.Buffer
		buf.WriteString("# SHA-256 of each /extract body and wrapper JSON; see TestExtractDigests.\n")
		buf.WriteString("# Regenerate: go test ./internal/serve -run TestExtractDigests -update\n")
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&buf, "%s %s\n", k, got[k])
		}
		if err := os.WriteFile(digestFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(keys), digestFile)
		return
	}

	want, err := readDigests(digestFile)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	mismatches := 0
	for _, k := range keys {
		w, ok := want[k]
		switch {
		case !ok:
			t.Errorf("%s: no committed digest (new engine or feature? rerun with -update)", k)
		case w != got[k]:
			if mismatches++; mismatches <= 20 {
				t.Errorf("%s: digest %s, committed %s", k, got[k], w)
			}
		}
	}
	if mismatches > 0 {
		t.Errorf("%d of %d digests differ from %s", mismatches, len(keys), digestFile)
	}
	if !testing.Short() && len(want) != len(keys) {
		t.Errorf("%s holds %d digests, the bed produced %d", digestFile, len(want), len(keys))
	}
}

// readDigests parses a digest file: "key hex" lines, '#' comments.
func readDigests(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[k] = v
	}
	return out, sc.Err()
}
