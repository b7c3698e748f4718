package yamlx

import (
	"strings"
)

type line struct {
	num    int    // 1-based line number in the source
	indent int    // number of leading spaces
	text   string // content after the indent (may include trailing comment)
	blank  bool   // line is empty or whitespace-only
}

type parser struct {
	lines   []line
	pos     int
	anchors map[string]any
}

// Decode parses the first YAML document in data.
func Decode(data []byte) (any, error) {
	docs, err := DecodeAll(data)
	if err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, nil
	}
	return docs[0], nil
}

// DecodeString is Decode on a string.
func DecodeString(s string) (any, error) { return Decode([]byte(s)) }

// DecodeAll parses every document in a YAML stream.
func DecodeAll(data []byte) ([]any, error) {
	lines, err := splitLines(string(data))
	if err != nil {
		return nil, err
	}
	var docs []any
	p := &parser{lines: lines, anchors: map[string]any{}}
	for {
		// Skip blanks, directives and bare document markers.
		for {
			p.skipBlank()
			if p.pos >= len(p.lines) {
				break
			}
			l := p.lines[p.pos]
			if l.indent == 0 && (strings.HasPrefix(l.text, "%") || l.text == "---" || l.text == "...") {
				p.pos++
				continue
			}
			break
		}
		if p.pos >= len(p.lines) {
			break
		}
		// "--- value" on one line.
		if l := p.lines[p.pos]; l.indent == 0 && strings.HasPrefix(l.text, "--- ") {
			p.lines[p.pos].text = strings.TrimSpace(l.text[4:])
			p.lines[p.pos].indent = 4
		}
		p.anchors = map[string]any{}
		v, err := p.parseNode(0)
		if err != nil {
			return nil, err
		}
		docs = append(docs, v)
		p.skipBlank()
		if p.pos < len(p.lines) {
			l := p.lines[p.pos]
			if l.indent == 0 && (l.text == "---" || strings.HasPrefix(l.text, "--- ") || l.text == "...") {
				continue
			}
			return nil, errf(l.num, "unexpected content %q after document", l.text)
		}
		break
	}
	return docs, nil
}

func splitLines(s string) ([]line, error) {
	s = strings.ReplaceAll(s, "\r\n", "\n")
	s = strings.ReplaceAll(s, "\r", "\n")
	raw := strings.Split(s, "\n")
	out := make([]line, 0, len(raw))
	for i, r := range raw {
		trimmed := strings.TrimRight(r, " \t")
		indent := 0
		for indent < len(trimmed) && trimmed[indent] == ' ' {
			indent++
		}
		if indent < len(trimmed) && trimmed[indent] == '\t' {
			return nil, errf(i+1, "tab character used for indentation")
		}
		text := trimmed[indent:]
		out = append(out, line{num: i + 1, indent: indent, text: text, blank: text == ""})
	}
	return out, nil
}

// skipBlank advances past blank lines and whole-line comments.
func (p *parser) skipBlank() {
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.blank || strings.HasPrefix(l.text, "#") {
			p.pos++
			continue
		}
		return
	}
}

func (p *parser) atDocBoundary() bool {
	if p.pos >= len(p.lines) {
		return true
	}
	l := p.lines[p.pos]
	return l.indent == 0 && (l.text == "---" || strings.HasPrefix(l.text, "--- ") || l.text == "...")
}

// parseNode parses the next node whose first line has indent >= minIndent.
func (p *parser) parseNode(minIndent int) (any, error) {
	p.skipBlank()
	if p.pos >= len(p.lines) || p.atDocBoundary() {
		return nil, nil
	}
	l := p.lines[p.pos]
	if l.indent < minIndent {
		return nil, nil
	}
	if isSeqItem(l.text) {
		return p.parseSequence(l.indent)
	}
	if _, _, ok := splitKey(l.text); ok {
		return p.parseMapping(l.indent)
	}
	// Scalar (or flow collection) node.
	p.pos++
	return p.parseValue(l.text, l.num, l.indent)
}

func isSeqItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

// splitKey splits "key: rest" at the first top-level colon. It returns ok=false
// when the line is not a mapping entry.
func splitKey(text string) (key, rest string, ok bool) {
	if strings.HasPrefix(text, "#") {
		return "", "", false
	}
	i := 0
	n := len(text)
	if n == 0 {
		return "", "", false
	}
	// Quoted key. Escapes are scanned forward ('\\' consumes the next byte)
	// so an escaped backslash before the closing quote — "k\\" — terminates
	// correctly; a backward text[i-1] check misreads it. Found by FuzzDecode.
	if text[0] == '"' || text[0] == '\'' {
		q := text[0]
		i = 1
		for i < n {
			if q == '\'' {
				if text[i] == '\'' {
					if i+1 < n && text[i+1] == '\'' {
						i += 2
						continue
					}
					break
				}
				i++
				continue
			}
			if text[i] == '\\' {
				i += 2
				continue
			}
			if text[i] == '"' {
				break
			}
			i++
		}
		if i >= n {
			return "", "", false
		}
		i++ // past closing quote
		j := i
		for j < n && text[j] == ' ' {
			j++
		}
		if j < n && text[j] == ':' && (j+1 == n || text[j+1] == ' ') {
			k, err := unquoteScalar(text[:i])
			if err != nil {
				return "", "", false
			}
			ks, _ := k.(string)
			return ks, strings.TrimSpace(text[j+1:]), true
		}
		return "", "", false
	}
	depth := 0
	for ; i < n; i++ {
		switch text[i] {
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case '"', '\'':
			q := text[i]
			i++
			for i < n && text[i] != q {
				if q == '"' && text[i] == '\\' {
					i++
				}
				i++
			}
			if i >= n {
				return "", "", false
			}
		case '#':
			if i > 0 && text[i-1] == ' ' {
				return "", "", false
			}
		case ':':
			if depth == 0 && (i+1 == n || text[i+1] == ' ') {
				key = strings.TrimSpace(text[:i])
				if key == "" {
					return "", "", false
				}
				return key, strings.TrimSpace(text[i+1:]), true
			}
		}
	}
	return "", "", false
}

func (p *parser) parseMapping(indent int) (any, error) {
	m := NewMap()
	for {
		p.skipBlank()
		if p.pos >= len(p.lines) || p.atDocBoundary() {
			break
		}
		l := p.lines[p.pos]
		if l.indent != indent {
			if l.indent > indent {
				return nil, errf(l.num, "unexpected indentation (%d > %d)", l.indent, indent)
			}
			break
		}
		key, rest, ok := splitKey(l.text)
		if !ok {
			if isSeqItem(l.text) {
				break
			}
			return nil, errf(l.num, "expected 'key: value' mapping entry, got %q", l.text)
		}
		p.pos++
		val, err := p.parseEntryValue(rest, l.num, indent)
		if err != nil {
			return nil, err
		}
		if key == "<<" {
			// Merge key: fold the referenced mapping(s) in.
			mergeInto(m, val)
			continue
		}
		m.Set(key, val)
	}
	return m, nil
}

func mergeInto(m *Map, val any) {
	switch v := val.(type) {
	case *Map:
		v.Range(func(k string, vv any) bool {
			if !m.Has(k) {
				m.Set(k, vv)
			}
			return true
		})
	case []any:
		for _, item := range v {
			mergeInto(m, item)
		}
	}
}

// parseEntryValue parses the value part of a mapping entry or sequence item
// whose inline remainder is rest. ownerIndent is the indent of the owning line.
func (p *parser) parseEntryValue(rest string, lnum, ownerIndent int) (any, error) {
	// Anchor definition.
	if name, after, ok := cutAnchor(rest, '&'); ok {
		v, err := p.parseEntryValue(after, lnum, ownerIndent)
		if err != nil {
			return nil, err
		}
		p.anchors[name] = v
		return v, nil
	}
	// Tag: record whether it forces string, then continue with remainder.
	forceStr := false
	if strings.HasPrefix(rest, "!") {
		var tag string
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			tag, rest = rest, ""
		} else {
			tag, rest = rest[:sp], strings.TrimSpace(rest[sp+1:])
		}
		if tag == "!!str" {
			forceStr = true
		}
	}
	if rest == "" {
		v, err := p.parseChild(ownerIndent)
		if err != nil {
			return nil, err
		}
		return v, nil
	}
	if h, ok := blockHeader(rest); ok {
		return p.parseBlockScalar(h, ownerIndent)
	}
	v, err := p.parseValue(rest, lnum, ownerIndent)
	if err != nil {
		return nil, err
	}
	if forceStr {
		if _, isStr := v.(string); !isStr {
			return plainString(rest), nil
		}
	}
	return v, nil
}

func plainString(s string) string {
	if i := commentIndex(s); i >= 0 {
		s = strings.TrimRight(s[:i], " ")
	}
	return s
}

// parseChild parses the node nested under a mapping key or sequence dash at
// ownerIndent. A block sequence may sit at the same indent as its key.
func (p *parser) parseChild(ownerIndent int) (any, error) {
	p.skipBlank()
	if p.pos >= len(p.lines) || p.atDocBoundary() {
		return nil, nil
	}
	l := p.lines[p.pos]
	if l.indent > ownerIndent {
		return p.parseNode(ownerIndent + 1)
	}
	if l.indent == ownerIndent && isSeqItem(l.text) {
		return p.parseSequence(ownerIndent)
	}
	return nil, nil
}

func (p *parser) parseSequence(indent int) (any, error) {
	items := []any{}
	for {
		p.skipBlank()
		if p.pos >= len(p.lines) || p.atDocBoundary() {
			break
		}
		l := p.lines[p.pos]
		if l.indent != indent || !isSeqItem(l.text) {
			break
		}
		rest := strings.TrimSpace(l.text[1:])
		if rest == "" {
			p.pos++
			item, err := p.parseChild(indent)
			if err != nil {
				return nil, err
			}
			items = append(items, item)
			continue
		}
		// Rewrite the line in place so its content starts at the rest's
		// column; then any block structure (compact mapping, nested
		// sequence) parses naturally.
		restCol := indent + (len(l.text) - len(rest))
		p.lines[p.pos].indent = restCol
		p.lines[p.pos].text = rest
		item, err := p.parseSeqItemNode(restCol, indent)
		if err != nil {
			return nil, err
		}
		items = append(items, item)
	}
	return items, nil
}

// parseSeqItemNode parses a sequence item whose inline content begins at
// itemIndent (the dash sits at dashIndent < itemIndent).
func (p *parser) parseSeqItemNode(itemIndent, dashIndent int) (any, error) {
	l := p.lines[p.pos]
	if isSeqItem(l.text) {
		return p.parseSequence(itemIndent)
	}
	if _, _, ok := splitKey(l.text); ok {
		return p.parseMapping(itemIndent)
	}
	if h, ok := blockHeader(l.text); ok {
		p.pos++
		return p.parseBlockScalar(h, dashIndent)
	}
	p.pos++
	return p.parseValue(l.text, l.num, dashIndent)
}

func cutAnchor(s string, marker byte) (name, rest string, ok bool) {
	if len(s) < 2 || s[0] != marker {
		return "", "", false
	}
	i := 1
	for i < len(s) && s[i] != ' ' {
		i++
	}
	name = s[1:i]
	if name == "" {
		return "", "", false
	}
	return name, strings.TrimSpace(s[i:]), true
}

type blockHdr struct {
	folded  bool // '>' vs '|'
	chomp   byte // 0 (clip), '-' (strip), '+' (keep)
	indent  int  // explicit indentation indicator, 0 = auto
	comment bool
}

// blockHeader recognizes block scalar headers such as "|", ">-", "|2+".
func blockHeader(s string) (blockHdr, bool) {
	if s == "" || (s[0] != '|' && s[0] != '>') {
		return blockHdr{}, false
	}
	h := blockHdr{folded: s[0] == '>'}
	rest := s[1:]
	for rest != "" {
		c := rest[0]
		switch {
		case c == '-' || c == '+':
			if h.chomp != 0 {
				return blockHdr{}, false
			}
			h.chomp = c
		case c >= '1' && c <= '9':
			if h.indent != 0 {
				return blockHdr{}, false
			}
			h.indent = int(c - '0')
		case c == ' ':
			rest = strings.TrimLeft(rest, " ")
			if rest == "" || rest[0] == '#' {
				return h, true
			}
			return blockHdr{}, false
		default:
			return blockHdr{}, false
		}
		rest = rest[1:]
	}
	return h, true
}

func (p *parser) parseBlockScalar(h blockHdr, ownerIndent int) (any, error) {
	// Collect raw body lines: all lines more indented than ownerIndent, plus
	// interior blank lines.
	var body []line
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.blank {
			body = append(body, l)
			p.pos++
			continue
		}
		if l.indent <= ownerIndent {
			break
		}
		body = append(body, l)
		p.pos++
	}
	// Trim trailing blank lines out of the body (kept for chomp '+').
	trailing := 0
	for len(body) > 0 && body[len(body)-1].blank {
		trailing++
		body = body[:len(body)-1]
	}
	blockIndent := -1
	if h.indent > 0 {
		blockIndent = ownerIndent + h.indent
	} else {
		for _, l := range body {
			if !l.blank {
				blockIndent = l.indent
				break
			}
		}
	}
	if blockIndent < 0 { // empty scalar
		switch h.chomp {
		case '+':
			return strings.Repeat("\n", trailing), nil
		default:
			return "", nil
		}
	}
	var lines []string
	for _, l := range body {
		if l.blank {
			lines = append(lines, "")
			continue
		}
		pad := ""
		if l.indent > blockIndent {
			pad = strings.Repeat(" ", l.indent-blockIndent)
		}
		lines = append(lines, pad+l.text)
	}
	var text string
	if !h.folded {
		text = strings.Join(lines, "\n")
	} else {
		var b strings.Builder
		prevBlank := true
		prevIndented := false
		for i, ln := range lines {
			indented := strings.HasPrefix(ln, " ")
			switch {
			case i == 0:
				b.WriteString(ln)
			case ln == "":
				b.WriteByte('\n')
			case prevBlank || prevIndented || indented:
				if !prevBlank {
					b.WriteByte('\n')
				}
				b.WriteString(ln)
			default:
				b.WriteByte(' ')
				b.WriteString(ln)
			}
			prevBlank = ln == ""
			prevIndented = indented
		}
		text = b.String()
	}
	switch h.chomp {
	case '-':
		text = strings.TrimRight(text, "\n")
	case '+':
		text += strings.Repeat("\n", trailing+1)
	default:
		text = strings.TrimRight(text, "\n") + "\n"
		if strings.TrimRight(text, "\n") == "" {
			text = ""
		}
	}
	return text, nil
}

// commentIndex returns the byte index of an inline comment (" #") that is
// outside quotes, or -1.
func commentIndex(s string) int {
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS && (i == 0 || s[i-1] != '\\') {
				inD = !inD
			}
		case '#':
			if !inS && !inD && i > 0 && (s[i-1] == ' ' || s[i-1] == '\t') {
				return i
			}
			if !inS && !inD && i == 0 {
				return 0
			}
		}
	}
	return -1
}

// parseValue parses an inline value: alias, flow collection, quoted scalar, or
// plain scalar with possible multi-line continuation.
func (p *parser) parseValue(s string, lnum, ownerIndent int) (any, error) {
	s = strings.TrimSpace(s)
	if name, after, ok := cutAnchor(s, '&'); ok {
		v, err := p.parseValue(after, lnum, ownerIndent)
		if err != nil {
			return nil, err
		}
		p.anchors[name] = v
		return v, nil
	}
	if name, after, ok := cutAnchor(s, '*'); ok && commentOnly(after) {
		if v, found := p.anchors[name]; found {
			return v, nil
		}
		return nil, errf(lnum, "unknown anchor %q", name)
	}
	if s != "" && (s[0] == '[' || s[0] == '{') {
		full, err := p.collectFlow(s, lnum)
		if err != nil {
			return nil, err
		}
		v, rest, err := p.parseFlow(full, lnum, 0)
		if err != nil {
			return nil, err
		}
		rest = strings.TrimSpace(rest)
		if rest != "" && !strings.HasPrefix(rest, "#") {
			return nil, errf(lnum, "unexpected trailing content %q after flow value", rest)
		}
		return v, nil
	}
	if s != "" && (s[0] == '"' || s[0] == '\'') {
		end, err := quotedEnd(s, 0)
		if err != nil {
			return nil, errf(lnum, "%v", err)
		}
		tail := strings.TrimSpace(s[end+1:])
		if tail != "" && !strings.HasPrefix(tail, "#") {
			return nil, errf(lnum, "unexpected content %q after quoted scalar", tail)
		}
		return unquoteScalar(s[:end+1])
	}
	// Plain scalar, possibly continued on more-indented lines.
	text := plainString(s)
	for {
		save := p.pos
		p.skipBlank()
		if p.pos >= len(p.lines) || p.atDocBoundary() {
			p.pos = save
			break
		}
		l := p.lines[p.pos]
		if l.indent <= ownerIndent || isSeqItem(l.text) {
			p.pos = save
			break
		}
		if _, _, isKey := splitKey(l.text); isKey {
			p.pos = save
			break
		}
		text += " " + plainString(l.text)
		p.pos++
	}
	return typedScalar(strings.TrimSpace(text)), nil
}

func commentOnly(s string) bool {
	s = strings.TrimSpace(s)
	return s == "" || strings.HasPrefix(s, "#")
}

// collectFlow gathers a flow collection that may span multiple lines, with
// comments stripped, until brackets balance.
func (p *parser) collectFlow(first string, lnum int) (string, error) {
	var b strings.Builder
	cur := first
	for {
		if i := commentIndex(cur); i >= 0 {
			cur = strings.TrimRight(cur[:i], " ")
		}
		b.WriteString(cur)
		if flowBalanced(b.String()) {
			return b.String(), nil
		}
		if p.pos >= len(p.lines) {
			return "", errf(lnum, "unterminated flow collection")
		}
		b.WriteByte(' ')
		cur = p.lines[p.pos].text
		p.pos++
	}
}

func flowBalanced(s string) bool {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case '"', '\'':
			q := s[i]
			i++
			for i < len(s) && s[i] != q {
				if q == '"' && s[i] == '\\' {
					i++
				}
				i++
			}
		}
	}
	return depth <= 0
}

// maxFlowDepth bounds how deeply flow collections nest: DecodeJSON's
// limit, which is encoding/json's.
const maxFlowDepth = 10000

// parseFlow parses a flow value, nested depth collections deep, at the
// start of s and returns the remainder.
func (p *parser) parseFlow(s string, lnum, depth int) (any, string, error) {
	s = strings.TrimLeft(s, " ")
	if s == "" {
		return nil, "", errf(lnum, "empty flow value")
	}
	if (s[0] == '[' || s[0] == '{') && depth >= maxFlowDepth {
		return nil, "", errf(lnum, "flow collections nested more than %d deep", maxFlowDepth)
	}
	switch s[0] {
	case '[':
		s = strings.TrimLeft(s[1:], " ")
		items := []any{}
		for {
			if s == "" {
				return nil, "", errf(lnum, "unterminated flow sequence")
			}
			if s[0] == ']' {
				return items, s[1:], nil
			}
			v, rest, err := p.parseFlow(s, lnum, depth+1)
			if err != nil {
				return nil, "", err
			}
			items = append(items, v)
			s = strings.TrimLeft(rest, " ")
			if s != "" && s[0] == ',' {
				s = strings.TrimLeft(s[1:], " ")
			}
		}
	case '{':
		s = strings.TrimLeft(s[1:], " ")
		m := NewMap()
		for {
			if s == "" {
				return nil, "", errf(lnum, "unterminated flow mapping")
			}
			if s[0] == '}' {
				return m, s[1:], nil
			}
			// Key: quoted or plain up to ':'.
			var key string
			if s[0] == '"' || s[0] == '\'' {
				end, err := quotedEnd(s, 0)
				if err != nil {
					return nil, "", errf(lnum, "%v", err)
				}
				kv, err := unquoteScalar(s[:end+1])
				if err != nil {
					return nil, "", errf(lnum, "%v", err)
				}
				key, _ = kv.(string)
				s = strings.TrimLeft(s[end+1:], " ")
			} else {
				ci := strings.IndexAny(s, ":,}")
				if ci < 0 || s[ci] != ':' {
					return nil, "", errf(lnum, "missing ':' in flow mapping near %q", s)
				}
				key = strings.TrimSpace(s[:ci])
				s = s[ci:]
			}
			if s == "" || s[0] != ':' {
				return nil, "", errf(lnum, "missing ':' in flow mapping")
			}
			s = strings.TrimLeft(s[1:], " ")
			if s != "" && (s[0] == ',' || s[0] == '}') {
				m.Set(key, nil)
			} else {
				v, rest, err := p.parseFlow(s, lnum, depth+1)
				if err != nil {
					return nil, "", err
				}
				m.Set(key, v)
				s = strings.TrimLeft(rest, " ")
			}
			if s != "" && s[0] == ',' {
				s = strings.TrimLeft(s[1:], " ")
			}
		}
	case '"', '\'':
		end, err := quotedEnd(s, 0)
		if err != nil {
			return nil, "", errf(lnum, "%v", err)
		}
		v, err := unquoteScalar(s[:end+1])
		if err != nil {
			return nil, "", errf(lnum, "%v", err)
		}
		return v, s[end+1:], nil
	case '*':
		i := 1
		for i < len(s) && s[i] != ',' && s[i] != ']' && s[i] != '}' && s[i] != ' ' {
			i++
		}
		name := s[1:i]
		v, ok := p.anchors[name]
		if !ok {
			return nil, "", errf(lnum, "unknown anchor %q", name)
		}
		return v, s[i:], nil
	default:
		i := 0
		for i < len(s) && s[i] != ',' && s[i] != ']' && s[i] != '}' {
			i++
		}
		if i == 0 {
			// s starts with a terminator the caller did not consume (a stray
			// '}' inside [...], a leading ','): returning a zero-length
			// scalar would hand the caller back its own input and loop
			// forever. Found by FuzzDecode.
			return nil, "", errf(lnum, "unexpected %q in flow value", s[0])
		}
		return typedScalar(strings.TrimSpace(s[:i])), s[i:], nil
	}
}

// quotedEnd returns the index of the closing quote of the quoted scalar
// starting at s[start].
func quotedEnd(s string, start int) (int, error) {
	q := s[start]
	i := start + 1
	for i < len(s) {
		if q == '\'' {
			if s[i] == '\'' {
				if i+1 < len(s) && s[i+1] == '\'' {
					i += 2
					continue
				}
				return i, nil
			}
		} else {
			if s[i] == '\\' {
				i += 2
				continue
			}
			if s[i] == '"' {
				return i, nil
			}
		}
		i++
	}
	return 0, &Error{Msg: "unterminated quoted scalar"}
}

// unquoteScalar interprets a single- or double-quoted YAML scalar.
func unquoteScalar(s string) (any, error) {
	if len(s) < 2 {
		return s, nil
	}
	q := s[0]
	body := s[1 : len(s)-1]
	if q == '\'' {
		return strings.ReplaceAll(body, "''", "'"), nil
	}
	var b strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			return nil, &Error{Msg: "dangling escape in double-quoted scalar"}
		}
		switch body[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '0':
			b.WriteByte(0)
		case 'a':
			b.WriteByte(7)
		case 'b':
			b.WriteByte(8)
		case 'f':
			b.WriteByte(12)
		case 'v':
			b.WriteByte(11)
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case '/':
			b.WriteByte('/')
		case 'x':
			if i+2 >= len(body) {
				return nil, &Error{Msg: "truncated \\x escape"}
			}
			var n int
			if _, err := fmtSscanfHex(body[i+1:i+3], &n); err != nil {
				return nil, &Error{Msg: "bad \\x escape"}
			}
			b.WriteByte(byte(n))
			i += 2
		case 'u':
			if i+4 >= len(body) {
				return nil, &Error{Msg: "truncated \\u escape"}
			}
			var n int
			if _, err := fmtSscanfHex(body[i+1:i+5], &n); err != nil {
				return nil, &Error{Msg: "bad \\u escape"}
			}
			b.WriteRune(rune(n))
			i += 4
		case 'U':
			if i+8 >= len(body) {
				return nil, &Error{Msg: "truncated \\U escape"}
			}
			var n int
			if _, err := fmtSscanfHex(body[i+1:i+9], &n); err != nil {
				return nil, &Error{Msg: "bad \\U escape"}
			}
			b.WriteRune(rune(n))
			i += 8
		default:
			return nil, &Error{Msg: "unknown escape \\" + string(body[i])}
		}
	}
	return b.String(), nil
}

func fmtSscanfHex(s string, n *int) (int, error) {
	v := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v*16 + int(c-'0')
		case c >= 'a' && c <= 'f':
			v = v*16 + int(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v*16 + int(c-'A'+10)
		default:
			return 0, &Error{Msg: "bad hex digit"}
		}
	}
	*n = v
	return len(s), nil
}
