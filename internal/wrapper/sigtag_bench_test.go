package wrapper

import (
	"fmt"
	"testing"
)

// benchSeparator builds a separator with realistic signature shapes (tag +
// nested child signature text, as mining.RootSignature emits).
func benchSeparator() Separator {
	var start, interior []string
	for i := 0; i < 6; i++ {
		start = append(start, fmt.Sprintf("tr(td[a,b,],td[span,],td%d[,])", i))
		interior = append(interior, fmt.Sprintf("div(p[,],span%d[,])", i))
	}
	return Separator{StartSigs: start, InteriorSigs: interior}
}

// benchRootSigs are signatures of page roots none of which matches a
// stored signature exactly, forcing the tag-level fallback for each.
func benchRootSigs() []string {
	sigs := make([]string, 0, 48)
	for i := 0; i < 48; i++ {
		sigs = append(sigs, fmt.Sprintf("tr(td[a,],td[font,],x%d[,])", i))
	}
	return sigs
}

// BenchmarkWrapperSigClassify times the unknown-signature fallback of
// partitionBySepCompiled: each root's tag against the tag lists compileSep
// derived once from the stored signatures.
func BenchmarkWrapperSigClassify(b *testing.B) {
	cs := compileSep(benchSeparator())
	roots := benchRootSigs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		starts := 0
		for _, sig := range roots {
			tag := sigTag(sig)
			if containsString(cs.startTags, tag) && !containsString(cs.interiorTags, tag) {
				starts++
			}
		}
		if starts != len(roots) {
			b.Fatalf("starts = %d, want %d", starts, len(roots))
		}
	}
}
