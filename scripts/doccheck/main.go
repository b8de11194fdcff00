// Command doccheck is the CI documentation gate: it fails when an exported
// top-level identifier (type, function, method, var or const) in the given
// package directories lacks a doc comment, and when a package lacks a
// package-level doc comment. CI runs it over the root facade and every
// internal package; run it locally with:
//
//	go run ./scripts/doccheck . $(go list -f '{{.Dir}}' ./internal/...)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <package dir> [<package dir> ...]")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		problems, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
			os.Exit(2)
		}
		for _, p := range problems {
			fmt.Println(p)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifier(s) missing doc comments\n", bad)
		os.Exit(1)
	}
}

// checkDir parses one package directory (tests excluded) and returns one
// message per undocumented exported identifier.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			filepath.ToSlash(p.Filename), p.Line, what, name))
	}
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			out = append(out, fmt.Sprintf("%s: package %s has no package doc comment", dir, pkg.Name))
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						what := "function"
						if d.Recv != nil {
							// Methods on unexported receivers are not part
							// of the exported API surface.
							if !exportedRecv(d.Recv) {
								continue
							}
							what = "method"
						}
						report(d.Pos(), what, d.Name.Name)
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return out, nil
}

// exportedRecv reports whether a method receiver names an exported type.
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// checkGenDecl reports undocumented exported types, vars and consts. A doc
// comment on the grouped declaration covers all of its specs (the
// convention for const/var blocks).
func checkGenDecl(d *ast.GenDecl, report func(pos token.Pos, what, name string)) {
	what := ""
	switch d.Tok {
	case token.TYPE:
		what = "type"
	case token.VAR:
		what = "var"
	case token.CONST:
		what = "const"
	default:
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), what, s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(s.Pos(), what, name.Name)
				}
			}
		}
	}
}
