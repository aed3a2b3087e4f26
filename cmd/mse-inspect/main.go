// Command mse-inspect prints the intermediate artifacts of the MSE
// pipeline for one or more result pages: the rendered content lines (Step
// 1), the multi-record sections MRE finds (Step 2), and — when two or more
// pages are given — the candidate section boundary markers and dynamic
// sections of DSE (Step 3) plus the refined sections (Steps 4-6).  It is
// the tool to reach for when a wrapper misbehaves on an engine.
//
// Usage:
//
//	mse-inspect [-mode lines|dom|mrs|sections] page.html[:term+term...] ...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mse/internal/core"
	"mse/internal/dom"
	"mse/internal/dse"
	"mse/internal/htmlparse"
	"mse/internal/layout"
	"mse/internal/mre"
)

func main() {
	mode := flag.String("mode", "sections", "what to print: lines, dom, mrs, sections")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr,
			"usage: mse-inspect [-mode lines|dom|mrs|sections] page.html[:term+term...] ...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	type input struct {
		path  string
		page  *layout.Page
		query []string
	}
	var inputs []input
	for _, arg := range flag.Args() {
		path, queryPart, _ := strings.Cut(arg, ":")
		data, err := os.ReadFile(path)
		if err != nil {
			fatal("reading %s: %v", path, err)
		}
		var query []string
		if queryPart != "" {
			query = strings.Split(queryPart, "+")
		}
		inputs = append(inputs, input{
			path:  path,
			page:  layout.Render(htmlparse.Parse(string(data))),
			query: query,
		})
	}

	opt := core.DefaultOptions()
	switch *mode {
	case "lines":
		for _, in := range inputs {
			fmt.Printf("== %s: %d content lines\n", in.path, len(in.page.Lines))
			printLines(in.page, nil)
		}
	case "dom":
		for _, in := range inputs {
			fmt.Printf("== %s\n", in.path)
			printDOM(in.page.Doc, 0)
		}
	case "mrs":
		for _, in := range inputs {
			fmt.Printf("== %s\n", in.path)
			for _, mr := range mre.Extract(in.page, &opt.Params, opt.MRE, nil) {
				fmt.Printf("MR lines [%d,%d) with %d records\n", mr.Start, mr.End, len(mr.Records))
				for i, r := range mr.Records {
					fmt.Printf("  record %d: lines [%d,%d) %q\n", i+1, r.Start, r.End,
						truncate(strings.ReplaceAll(r.Text(), "\n", " | "), 90))
				}
			}
		}
	case "sections":
		if len(inputs) < 2 {
			fatal("mode 'sections' needs at least two pages (DSE compares pages)")
		}
		var samples []*core.SamplePage
		var dseIns []*dse.PageInput
		for _, in := range inputs {
			samples = append(samples, &core.SamplePage{HTML: "", Query: in.query})
			dseIns = append(dseIns, &dse.PageInput{
				Page: in.page, Query: in.query,
				MRs: mre.Extract(in.page, &opt.Params, opt.MRE, nil),
			})
		}
		_, marks := dse.Run(dseIns, opt.DSE)
		// Re-run the full analysis for the refined view.
		for i, in := range inputs {
			data, err := os.ReadFile(in.path)
			if err != nil {
				fatal("re-reading %s: %v", in.path, err)
			}
			samples[i].HTML = string(data)
		}
		pageSections, err := core.AnalyzePages(samples, opt)
		if err != nil {
			fatal("analysis: %v", err)
		}
		for i, in := range inputs {
			fmt.Printf("== %s\n", in.path)
			fmt.Printf("-- content lines (* = candidate section boundary marker):\n")
			printLines(in.page, marks[i])
			fmt.Printf("-- refined sections:\n")
			for _, s := range pageSections[i].Sections {
				name := s.LBMText()
				if name == "" {
					name = "(no boundary marker)"
				}
				fmt.Printf("  section %q lines [%d,%d) with %d records\n",
					name, s.Start, s.End, len(s.Records))
			}
		}
	default:
		fatal("unknown mode %q", *mode)
	}
}

func printLines(p *layout.Page, marks []bool) {
	for i, l := range p.Lines {
		mark := " "
		if marks != nil && marks[i] {
			mark = "*"
		}
		attrs := ""
		for _, a := range l.Attrs {
			attrs += fmt.Sprintf("[%s %d %s %s]", a.Font, a.Size, styleString(a.Style), a.Color)
		}
		fmt.Printf("%s %3d %-10s x=%-4d %-40s %s\n", mark, i, l.Type, l.X,
			truncate(l.Text, 40), attrs)
	}
}

func styleString(s layout.StyleFlags) string {
	out := ""
	if s&layout.Bold != 0 {
		out += "b"
	}
	if s&layout.Italic != 0 {
		out += "i"
	}
	if s&layout.Underline != 0 {
		out += "u"
	}
	if out == "" {
		out = "-"
	}
	return out
}

func printDOM(n *dom.Node, depth int) {
	indent := strings.Repeat("  ", depth)
	switch n.Type {
	case dom.TextNode:
		t := strings.TrimSpace(n.Data)
		if t != "" {
			fmt.Printf("%s%q\n", indent, truncate(t, 60))
		}
		return
	case dom.CommentNode, dom.DoctypeNode:
		return
	case dom.ElementNode:
		attrs := ""
		for _, a := range n.Attrs {
			attrs += fmt.Sprintf(" %s=%q", a.Key, a.Val)
		}
		fmt.Printf("%s<%s%s>\n", indent, n.Tag, attrs)
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		printDOM(c, depth+1)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mse-inspect: "+format+"\n", args...)
	os.Exit(1)
}
