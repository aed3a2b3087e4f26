// Package visual implements the content-feature measures of Section 4 of
// the MSE paper: line distances (Formula 3), line-text-attribute distance
// (Formula 2), record distance (Formula 4), inter-record distance
// (Formula 5), record diversity (Formula 6) and section cohesion
// (Formula 7), together with the block-level distances (type, shape,
// position, text attribute, tag forest) the record distance combines.
package visual

import (
	"math"

	"mse/internal/dom"
	"mse/internal/editdist"
	"mse/internal/layout"
)

// PositionK is the scaling constant K of the position distance
// Dpl = K·log(1+|pc1−pc2|); the paper sets it to 0.127, which keeps Dpl in
// [0, 1] for typical page widths.
const PositionK = 0.127

// LineWeights are the u1, u2, u3 of Formula 3 (type, position, text
// attribute).  They must sum to 1.
type LineWeights struct {
	Type, Position, Attr float64
}

// DefaultLineWeights weights the three line features equally.
func DefaultLineWeights() LineWeights {
	return LineWeights{Type: 1.0 / 3, Position: 1.0 / 3, Attr: 1.0 / 3}
}

// RecordWeights are the v1..v5 of Formula 4 (tag forest, block type, block
// shape, block position, block text attribute).  They must sum to 1.
type RecordWeights struct {
	Forest, Type, Shape, Position, Attr float64
}

// DefaultRecordWeights weights the five record features equally.
func DefaultRecordWeights() RecordWeights {
	return RecordWeights{Forest: 0.2, Type: 0.2, Shape: 0.2, Position: 0.2, Attr: 0.2}
}

// Params are the similarity parameters every pipeline stage shares: the
// weights of Formulas 3 and 4 and the dissimilarity threshold that both
// refinement (§5.3) and granularity resolution (§5.5) test against.
type Params struct {
	LineWeights   LineWeights
	RecordWeights RecordWeights
	// W is the threshold multiplier of §5.3 and §5.5 (1.8 in the paper).
	W float64
	// MinDinr floors Dinr when forming the W × Dinr threshold; without a
	// floor, records that are pixel-identical would reject every other
	// record.
	MinDinr float64
}

// DefaultParams returns the paper's parameters.
func DefaultParams() Params {
	return Params{
		LineWeights:   DefaultLineWeights(),
		RecordWeights: DefaultRecordWeights(),
		W:             1.8,
		MinDinr:       0.08,
	}
}

// Threshold is W × max(Dinr(records), MinDinr): a block whose average
// distance to records exceeds it is alien to them.
func (p *Params) Threshold(records []Block) float64 {
	return p.W * math.Max(InterRecordDistance(records, p.RecordWeights), p.MinDinr)
}

// TypeDistance (Dtl) is the distance between two content-line type codes,
// in [0, 1].  Identical types have distance 0; types within the same broad
// family (link vs link-text, image vs image-text) are closer than
// unrelated types.
func TypeDistance(a, b layout.LineType) float64 {
	if a == b {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	switch {
	case a == layout.LinkLine && b == layout.LinkTextLine:
		return 0.4
	case a == layout.ImageLine && b == layout.ImageTextLine:
		return 0.4
	case a == layout.TextLine && b == layout.LinkTextLine:
		return 0.6
	case a == layout.TextLine && b == layout.ImageTextLine:
		return 0.6
	}
	return 1
}

// PositionDistance (Dpl) is K·log(1+|pc1−pc2|), capped at 1.
func PositionDistance(x1, x2 int) float64 {
	d := x1 - x2
	if d < 0 {
		d = -d
	}
	v := PositionK * math.Log(1+float64(d))
	if v > 1 {
		return 1
	}
	return v
}

// LineAttrDistance implements Formula 2: the distance between the text
// attribute sets of two content lines, 1 − |la1 ∩ la2| / max(|la1|,|la2|).
// Two lines with no attributes at all (e.g. two rule lines) have distance
// 0.
func LineAttrDistance(la1, la2 []layout.TextAttr) float64 {
	maxLen := len(la1)
	if len(la2) > maxLen {
		maxLen = len(la2)
	}
	if maxLen == 0 {
		return 0
	}
	inter := 0
	for _, a := range la1 {
		for _, b := range la2 {
			if a == b {
				inter++
				break
			}
		}
	}
	return 1 - float64(inter)/float64(maxLen)
}

// LineDistance implements Formula 3: the weighted combination of type,
// position and text-attribute distances between two content lines.
func LineDistance(a, b *layout.Line, w LineWeights) float64 {
	return w.Type*TypeDistance(a.Type, b.Type) +
		w.Position*PositionDistance(a.X, b.X) +
		w.Attr*LineAttrDistance(a.Attrs, b.Attrs)
}

// Block is a consecutive run of content lines [Start, End) on a page.
// Records, candidate records and boundary regions are all blocks.
type Block struct {
	Page  *layout.Page
	Start int
	End   int
}

// Lines returns the content lines of the block.
func (b Block) Lines() []layout.Line {
	return b.Page.Lines[b.Start:b.End]
}

// Len returns the number of content lines in the block.
func (b Block) Len() int { return b.End - b.Start }

// Text concatenates the block's line texts with newlines.
func (b Block) Text() string {
	out := ""
	for i, l := range b.Lines() {
		if i > 0 {
			out += "\n"
		}
		out += l.Text
	}
	return out
}

// Forest returns the minimal tag forest underneath the block.
func (b Block) Forest() []*dom.Node {
	return b.Page.Forest(b.Start, b.End)
}

// MinX returns the block position: the left-most x coordinate among the
// block's lines (0 for an empty block).
func (b Block) MinX() int {
	min := math.MaxInt
	for _, l := range b.Lines() {
		if l.X < min {
			min = l.X
		}
	}
	if min == math.MaxInt {
		return 0
	}
	return min
}

// Shape returns the block shape: the left contour as the sequence of
// position codes of its lines, relative to the block's own left edge.
func (b Block) Shape() []int {
	minX := b.MinX()
	out := make([]int, 0, b.Len())
	for _, l := range b.Lines() {
		out = append(out, l.X-minX)
	}
	return out
}

// TypeCode returns the block type code: the sequence of line type codes.
func (b Block) TypeCode() []layout.LineType {
	out := make([]layout.LineType, 0, b.Len())
	for _, l := range b.Lines() {
		out = append(out, l.Type)
	}
	return out
}

// BlockTypeDistance (Dbt) is the normalized edit distance between the two
// blocks' type-code sequences with TypeDistance as substitution cost.
func BlockTypeDistance(a, b Block) float64 {
	return typeCodeDistance(a.TypeCode(), b.TypeCode())
}

// BlockShapeDistance (Dbs) is the normalized edit distance between the two
// blocks' shapes, with substitution cost PositionDistance of the relative
// offsets.
func BlockShapeDistance(a, b Block) float64 {
	return shapeDistance(a.Shape(), b.Shape())
}

// BlockPositionDistance (Dbp) is the position distance between the two
// blocks' left edges.
func BlockPositionDistance(a, b Block) float64 {
	return PositionDistance(a.MinX(), b.MinX())
}

// BlockAttrDistance (Dbta) is the string edit distance between the two
// blocks' per-line attribute sets, with LineAttrDistance as substitution
// cost, normalized by the longer block.
func BlockAttrDistance(a, b Block) float64 {
	return attrSeqDistance(a.Lines(), b.Lines())
}

// ForestDistance (Dtf) is the tag-forest distance between the blocks'
// minimal tag forests.
func ForestDistance(a, b Block) float64 {
	return editdist.ForestDist(a.Forest(), b.Forest())
}

// blockFeat is the per-block feature bundle the record distance consumes.
// The pairwise aggregates below (inter-record distance, average record
// distance) derive each block's features once instead of once per
// comparison — TypeCode, Shape and Forest all allocate, and the aggregates
// are quadratic in the number of records.
type blockFeat struct {
	typeCode []layout.LineType
	shape    []int
	minX     int
	lines    []layout.Line
	forest   []*dom.Node
}

func featuresOf(b Block) blockFeat {
	return blockFeat{
		typeCode: b.TypeCode(),
		shape:    b.Shape(),
		minX:     b.MinX(),
		lines:    b.Lines(),
		forest:   b.Forest(),
	}
}

// recordDistFeat is RecordDistance over precomputed features, combining
// the five components in the same order (identical float arithmetic).
func recordDistFeat(a, b *blockFeat, w RecordWeights) float64 {
	return w.Forest*editdist.ForestDist(a.forest, b.forest) +
		w.Type*typeCodeDistance(a.typeCode, b.typeCode) +
		w.Shape*shapeDistance(a.shape, b.shape) +
		w.Position*PositionDistance(a.minX, b.minX) +
		w.Attr*attrSeqDistance(a.lines, b.lines)
}

func typeCodeDistance(ta, tb []layout.LineType) float64 {
	maxLen := len(ta)
	if len(tb) > maxLen {
		maxLen = len(tb)
	}
	if maxLen == 0 {
		return 0
	}
	d := editdist.Strings(len(ta), len(tb), editdist.Costs{
		Sub: func(i, j int) float64 { return TypeDistance(ta[i], tb[j]) },
		Del: func(int) float64 { return 1 },
		Ins: func(int) float64 { return 1 },
	})
	return d / float64(maxLen)
}

func shapeDistance(sa, sb []int) float64 {
	maxLen := len(sa)
	if len(sb) > maxLen {
		maxLen = len(sb)
	}
	if maxLen == 0 {
		return 0
	}
	d := editdist.Strings(len(sa), len(sb), editdist.Costs{
		Sub: func(i, j int) float64 { return PositionDistance(sa[i], sb[j]) },
		Del: func(int) float64 { return 1 },
		Ins: func(int) float64 { return 1 },
	})
	return d / float64(maxLen)
}

func attrSeqDistance(la, lb []layout.Line) float64 {
	maxLen := len(la)
	if len(lb) > maxLen {
		maxLen = len(lb)
	}
	if maxLen == 0 {
		return 0
	}
	d := editdist.Strings(len(la), len(lb), editdist.Costs{
		Sub: func(i, j int) float64 { return LineAttrDistance(la[i].Attrs, lb[j].Attrs) },
		Del: func(int) float64 { return 1 },
		Ins: func(int) float64 { return 1 },
	})
	return d / float64(maxLen)
}

// RecordDistance implements Formula 4: the weighted combination of tag
// forest, block type, block shape, block position and block text-attribute
// distances between two records.
func RecordDistance(a, b Block, w RecordWeights) float64 {
	fa, fb := featuresOf(a), featuresOf(b)
	return recordDistFeat(&fa, &fb, w)
}

// VisualRecordDistance is RecordDistance without the tag-forest component,
// used by MRE when grouping candidate blocks purely by appearance (the
// forests are not yet trusted at that stage).  The remaining weights are
// renormalized.
func VisualRecordDistance(a, b Block, w RecordWeights) float64 {
	rest := w.Type + w.Shape + w.Position + w.Attr
	if rest == 0 {
		return 0
	}
	return (w.Type*BlockTypeDistance(a, b) +
		w.Shape*BlockShapeDistance(a, b) +
		w.Position*BlockPositionDistance(a, b) +
		w.Attr*BlockAttrDistance(a, b)) / rest
}

// InterRecordDistance implements Formula 5: the average pairwise record
// distance among the records of a section.  Sections with fewer than two
// records have inter-record distance 0.
func InterRecordDistance(records []Block, w RecordWeights) float64 {
	n := len(records)
	if n < 2 {
		return 0
	}
	feats := make([]blockFeat, n)
	for i, r := range records {
		feats[i] = featuresOf(r)
	}
	sum := 0.0
	pairs := 0
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			sum += recordDistFeat(&feats[i], &feats[j], w)
			pairs++
		}
	}
	return sum / float64(pairs)
}

// AvgRecordDistance is Davgrs of Section 5.3: the average record distance
// between block r and every record in records.
func AvgRecordDistance(r Block, records []Block, w RecordWeights) float64 {
	if len(records) == 0 {
		return 0
	}
	rf := featuresOf(r)
	sum := 0.0
	for _, o := range records {
		of := featuresOf(o)
		sum += recordDistFeat(&rf, &of, w)
	}
	return sum / float64(len(records))
}

// RecordDiversity implements Formula 6: the average pairwise line distance
// among the content lines of a record.  Single-line records have
// diversity 0.
func RecordDiversity(r Block, w LineWeights) float64 {
	lines := r.Lines()
	m := len(lines)
	if m < 2 {
		return 0
	}
	sum := 0.0
	pairs := 0
	for i := 0; i < m-1; i++ {
		for j := i + 1; j < m; j++ {
			sum += LineDistance(&lines[i], &lines[j], w)
			pairs++
		}
	}
	return sum / float64(pairs)
}

// SectionCohesion implements Formula 7: the average record diversity of a
// partition's records divided by (1 + inter-record distance).  Higher
// cohesion indicates a more plausible partition of a section's lines into
// records: lines within a record should differ, records should resemble
// each other.
func SectionCohesion(records []Block, lw LineWeights, rw RecordWeights) float64 {
	n := len(records)
	if n == 0 {
		return 0
	}
	sumDiv := 0.0
	for _, r := range records {
		sumDiv += RecordDiversity(r, lw)
	}
	return (sumDiv / float64(n)) / (1 + InterRecordDistance(records, rw))
}
