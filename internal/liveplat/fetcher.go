package liveplat

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// HTTPFetcher implements content.Fetcher over net/http, enabling the
// profiling crawl (§2.2.1) against live sites.
type HTTPFetcher struct {
	Base   *url.URL
	Client *http.Client
}

// maxBody bounds how much of a page is read for link extraction.
const maxBody = 512 << 10

// NewHTTPFetcher builds a fetcher for the given absolute base URL.
func NewHTTPFetcher(target string) (*HTTPFetcher, error) {
	base, err := url.Parse(target)
	if err != nil {
		return nil, fmt.Errorf("liveplat: parsing %q: %w", target, err)
	}
	return &HTTPFetcher{
		Base:   base,
		Client: &http.Client{Timeout: 15 * time.Second},
	}, nil
}

func (f *HTTPFetcher) resolve(u string) string {
	parsed, err := url.Parse(u)
	if err != nil {
		return f.Base.String()
	}
	return f.Base.ResolveReference(parsed).String()
}

// Head implements content.Fetcher.
func (f *HTTPFetcher) Head(ctx context.Context, u string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, f.resolve(u), nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.Client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 400 {
		return 0, fmt.Errorf("liveplat: HEAD %s: status %d", u, resp.StatusCode)
	}
	if resp.ContentLength >= 0 {
		return resp.ContentLength, nil
	}
	return 0, nil
}

// Get implements content.Fetcher: it fetches the object, reports its size,
// and extracts same-host links when the response is HTML.
func (f *HTTPFetcher) Get(ctx context.Context, u string) (int64, []string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.resolve(u), nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := f.Client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		io.Copy(io.Discard, resp.Body)
		return 0, nil, fmt.Errorf("liveplat: GET %s: status %d", u, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return 0, nil, err
	}
	// Drain the remainder so size reporting is honest on big objects.
	rest, _ := io.Copy(io.Discard, resp.Body)
	size := int64(len(body)) + rest

	var links []string
	ct := resp.Header.Get("Content-Type")
	if strings.Contains(ct, "text/html") {
		links = f.sameHostLinks(ExtractLinks(string(body)))
	}
	return size, links, nil
}

// sameHostLinks resolves raw hrefs and keeps those on the target host,
// returned in site-relative form (path?query).
func (f *HTTPFetcher) sameHostLinks(raw []string) []string {
	var out []string
	for _, l := range raw {
		parsed, err := url.Parse(l)
		if err != nil {
			continue
		}
		abs := f.Base.ResolveReference(parsed)
		if abs.Host != f.Base.Host {
			continue
		}
		rel := abs.Path
		if rel == "" {
			rel = "/"
		}
		if abs.RawQuery != "" {
			rel += "?" + abs.RawQuery
		}
		out = append(out, rel)
	}
	return out
}

// ExtractLinks scans HTML for href/src attribute values. It is a
// deliberately small scanner, not a full parser: the profiling crawl only
// needs a representative object sample, not perfect link extraction.
func ExtractLinks(html string) []string {
	var links []string
	lower := strings.ToLower(html)
	for _, attr := range []string{"href", "src"} {
		idx := 0
		for {
			i := strings.Index(lower[idx:], attr+"=")
			if i < 0 {
				break
			}
			i += idx + len(attr) + 1
			if i >= len(html) {
				break
			}
			var val string
			switch html[i] {
			case '"':
				if j := strings.IndexByte(html[i+1:], '"'); j >= 0 {
					val = html[i+1 : i+1+j]
				}
			case '\'':
				if j := strings.IndexByte(html[i+1:], '\''); j >= 0 {
					val = html[i+1 : i+1+j]
				}
			default:
				j := strings.IndexAny(html[i:], " >\t\r\n")
				if j < 0 {
					j = len(html) - i
				}
				val = html[i : i+j]
			}
			idx = i
			val = strings.TrimSpace(val)
			if val == "" || strings.HasPrefix(val, "#") ||
				strings.HasPrefix(val, "javascript:") || strings.HasPrefix(val, "mailto:") ||
				strings.HasPrefix(val, "data:") {
				continue
			}
			links = append(links, val)
		}
	}
	return links
}
