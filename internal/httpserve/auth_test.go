package httpserve

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"testing"
)

// FuzzParseAuthTokens feeds arbitrary token files to the parser: it must
// never panic, and every file it accepts must re-render — one sorted
// "token client-name" line per entry — to a file that parses to the
// same map.
func FuzzParseAuthTokens(f *testing.F) {
	f.Add("")
	f.Add("# comment\ntok-1 alice\n\ntok-2   bob\n")
	f.Add("t a\nt b\n")
	f.Add("lonely-token\n")
	f.Add("  tok\tname  \r\n#tok2 x\n")
	f.Add("a b c\n")
	f.Fuzz(func(t *testing.T, file string) {
		tokens, err := ParseAuthTokens(strings.NewReader(file))
		if err != nil {
			return
		}
		keys := make([]string, 0, len(tokens))
		for tok := range tokens {
			keys = append(keys, tok)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, tok := range keys {
			fmt.Fprintf(&b, "%s %s\n", tok, tokens[tok])
		}
		again, err := ParseAuthTokens(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-rendered file rejected: %v\n%q", err, b.String())
		}
		if !maps.Equal(tokens, again) {
			t.Fatalf("re-rendered file parsed to %v, want %v", again, tokens)
		}
	})
}
