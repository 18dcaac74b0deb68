// Command sqlsh is a SQL shell over the embedded database engine
// (internal/sqldb). It reads semicolon-terminated statements from stdin
// (or -e / -f) and prints result tables.
//
// Usage:
//
//	sqlsh                  # interactive/stdin
//	sqlsh -e "SELECT 1+1"  # one-shot
//	sqlsh -f script.sql    # run a script file
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"wfsql/internal/sqldb"
)

func main() {
	expr := flag.String("e", "", "execute this statement and exit")
	file := flag.String("f", "", "execute this script file and exit")
	load := flag.String("load", "", "load a dump/script before executing")
	dump := flag.Bool("dump", false, "print a SQL dump of the database on exit")
	flag.Parse()

	db := sqldb.Open("shell")
	sess := db.Session()

	if *load != "" {
		data, err := os.ReadFile(*load)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sqlsh: %v\n", err)
			os.Exit(1)
		}
		if _, err := db.ExecScript(string(data)); err != nil {
			fmt.Fprintf(os.Stderr, "sqlsh: load: %v\n", err)
			os.Exit(1)
		}
	}
	if *dump {
		defer func() { fmt.Print(db.Dump()) }()
	}

	runOne := func(sql string) bool {
		sql = strings.TrimSpace(sql)
		if sql == "" {
			return true
		}
		res, err := sess.Exec(sql)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return false
		}
		fmt.Print(res.String())
		if res.IsQuery() {
			fmt.Printf("(%d rows)\n", len(res.Rows))
		} else {
			fmt.Println()
		}
		return true
	}

	switch {
	case *expr != "":
		if !runOne(*expr) {
			os.Exit(1)
		}
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sqlsh: %v\n", err)
			os.Exit(1)
		}
		ok := true
		for _, stmt := range splitStatements(string(data)) {
			if !runOne(stmt) {
				ok = false
				break
			}
		}
		if !ok {
			os.Exit(1)
		}
	default:
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var buf strings.Builder
		fmt.Fprint(os.Stderr, "sql> ")
		for sc.Scan() {
			line := sc.Text()
			buf.WriteString(line)
			buf.WriteByte('\n')
			if strings.HasSuffix(strings.TrimSpace(line), ";") {
				runOne(strings.TrimSuffix(strings.TrimSpace(buf.String()), ";"))
				buf.Reset()
			}
			fmt.Fprint(os.Stderr, "sql> ")
		}
		if buf.Len() > 0 {
			runOne(buf.String())
		}
	}
}

// splitStatements splits a script on top-level semicolons (quote-aware).
func splitStatements(script string) []string {
	var out []string
	var b strings.Builder
	inStr := false
	for i := 0; i < len(script); i++ {
		c := script[i]
		switch {
		case c == '\'':
			inStr = !inStr
			b.WriteByte(c)
		case c == ';' && !inStr:
			out = append(out, b.String())
			b.Reset()
		default:
			b.WriteByte(c)
		}
	}
	if strings.TrimSpace(b.String()) != "" {
		out = append(out, b.String())
	}
	return out
}
