package sqldb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexical tokens of the SQL dialect.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokParam  // placeholder: text "?", or the bare name of :name / @name
	tokSymbol // operators and punctuation
)

type token struct {
	kind tokenKind
	text string // keyword/ident text (uppercased for keywords), symbol text
	num  Value  // for tokNumber
	pos  int    // byte offset in input (for error messages)
	end  int    // byte offset just past the token (for source spans)
}

// keywords recognized by the lexer. Identifiers matching these (case
// insensitively) become tokKeyword with uppercased text.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "DESC": true, "LIMIT": true, "OFFSET": true,
	"DISTINCT": true, "AS": true, "AND": true, "OR": true, "NOT": true,
	"IN": true, "IS": true, "NULL": true, "TRUE": true, "FALSE": true,
	"EXISTS": true, "JOIN": true, "CROSS": true, "ON": true, "INSERT": true,
	"INTO": true, "VALUES": true, "UPDATE": true, "SET": true, "DELETE": true,
	"CREATE": true, "DROP": true, "TABLE": true, "INDEX": true, "UNIQUE": true,
	"SEQUENCE": true, "PROCEDURE": true, "CALL": true, "BEGIN": true,
	"COMMIT": true, "ROLLBACK": true, "PRIMARY": true, "KEY": true,
	"DEFAULT": true, "INTEGER": true, "INT": true, "FLOAT": true,
	"VARCHAR": true, "TEXT": true, "BOOLEAN": true, "BOOL": true,
	"START": true, "WITH": true, "INCREMENT": true, "IF": true,
	"EXPLAIN": true, "COUNT": true, "SUM": true, "AVG": true, "MIN": true,
	"MAX": true,
}

// lexer tokenizes a SQL string.
type lexer struct {
	src string
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: src} }

// lexAll tokenizes the whole input. The token slice is sized from the
// source (SQL runs at four to six bytes a token, blanks included), so it
// is allocated once instead of grown from nil.
func (l *lexer) lexAll() ([]token, error) {
	toks := make([]token, 0, len(l.src)/4+2)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		t.end = l.pos // next() stops right past the token, before any trailing space
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func (l *lexer) errorf(pos int, format string, args ...any) error {
	return fmt.Errorf("sqldb: syntax error at offset %d: %s", pos, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '\'':
		return l.lexString()
	case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		return l.lexNumber()
	case isIdentStart(firstRune(l.src[l.pos:])):
		return l.lexIdent()
	case c == '?':
		l.pos++
		return token{kind: tokParam, text: "?", pos: start}, nil
	case (c == ':' || c == '@') && l.pos+1 < len(l.src) && isIdentStart(firstRune(l.src[l.pos+1:])):
		// A named placeholder: :name, or @name as SQL Server writes it.
		l.pos++
		nameStart := l.pos
		l.skipIdentPart()
		return token{kind: tokParam, text: l.src[nameStart:l.pos], pos: start}, nil
	}
	// Multi-char symbols first.
	two := ""
	if l.pos+2 <= len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=", "||":
		l.pos += 2
		return token{kind: tokSymbol, text: two, pos: start}, nil
	}
	switch c {
	case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', ';', '.':
		l.pos++
		return token{kind: tokSymbol, text: string(c), pos: start}, nil
	}
	return token{}, l.errorf(start, "unexpected character %q", string(firstRune(l.src[start:])))
}

// firstRune decodes the character s starts with (utf8.RuneError for an
// invalid sequence); an ASCII byte is its own character.
func firstRune(s string) rune {
	r := rune(s[0])
	if r >= utf8.RuneSelf {
		r, _ = utf8.DecodeRuneInString(s)
	}
	return r
}

// skipIdentPart advances past the identifier characters at l.pos.
func (l *lexer) skipIdentPart() {
	for l.pos < len(l.src) && isIdentPart(firstRune(l.src[l.pos:])) {
		l.pos += utf8.RuneLen(firstRune(l.src[l.pos:])) // a valid character: RuneError is no letter
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

func (l *lexer) lexString() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return token{kind: tokString, text: b.String(), pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return token{}, l.errorf(start, "unterminated string literal")
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	sawDot, sawExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !sawDot && !sawExp:
			sawDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !sawExp && l.pos > start:
			sawExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	text := l.src[start:l.pos]
	if sawDot || sawExp {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, l.errorf(start, "bad number %q", text)
		}
		return token{kind: tokNumber, num: Float(f), pos: start}, nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return token{}, l.errorf(start, "bad number %q", text)
	}
	return token{kind: tokNumber, num: Int(i), pos: start}, nil
}

func (l *lexer) lexIdent() (token, error) {
	start := l.pos
	l.skipIdentPart()
	text := l.src[start:l.pos]
	up := strings.ToUpper(text)
	if keywords[up] {
		return token{kind: tokKeyword, text: up, pos: start}, nil
	}
	return token{kind: tokIdent, text: text, pos: start}, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
