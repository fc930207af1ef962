package content

import (
	"testing"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		url  string
		want Kind
	}{
		{"/index.html", KindText},
		{"/a/b/page.htm", KindText},
		{"/readme.txt", KindText},
		{"/style.css", KindText},
		{"/app.js", KindText},
		{"/paper.pdf", KindBinary},
		{"/dist.tar.gz", KindBinary},
		{"/setup.exe", KindBinary},
		{"/movie.mp4", KindBinary},
		{"/logo.png", KindImage},
		{"/photo.JPG", KindImage}, // case-insensitive extension
		{"/icon.svg", KindImage},
		{"/search?q=x", KindQuery},
		{"/cgi-bin/run.cgi?id=4", KindQuery},
		{"/page.php", KindText},      // script suffix, no query string
		{"/page.php?x=1", KindQuery}, // query string wins
		{"/plainpath", KindText},     // extensionless
		{"/data.weird", KindBinary},  // unknown ext conservative
		{"/doc.html#frag", KindText}, // fragments stripped
		{"/a.gif#frag", KindImage},   // fragments stripped for images too
	}
	for _, tc := range cases {
		if got := Classify(tc.url); got != tc.want {
			t.Errorf("Classify(%q) = %v, want %v", tc.url, got, tc.want)
		}
	}
}

func TestObjectGroupMembership(t *testing.T) {
	cases := []struct {
		obj   Object
		large bool
		small bool
	}{
		{Object{URL: "/a.bin", Size: LargeObjectMin}, true, false},
		{Object{URL: "/a.bin", Size: LargeObjectMin - 1}, false, false},
		{Object{URL: "/a.bin", Size: LargeObjectMax}, true, false},
		{Object{URL: "/a.bin", Size: LargeObjectMax + 1}, false, false},
		{Object{URL: "/q?x", Size: 100, Dynamic: true}, false, true},
		{Object{URL: "/q?x", Size: SmallQueryMax, Dynamic: true}, false, false},
		{Object{URL: "/q?x", Size: SmallQueryMax - 1, Dynamic: true}, false, true},
		// A dynamic object is never a Large Object even when big.
		{Object{URL: "/q?x", Size: LargeObjectMin, Dynamic: true}, false, false},
	}
	for _, tc := range cases {
		if got := tc.obj.IsLargeObject(); got != tc.large {
			t.Errorf("IsLargeObject(%+v) = %v, want %v", tc.obj, got, tc.large)
		}
		if got := tc.obj.IsSmallQuery(); got != tc.small {
			t.Errorf("IsSmallQuery(%+v) = %v, want %v", tc.obj, got, tc.small)
		}
	}
}

func TestNewSiteValidation(t *testing.T) {
	if _, err := NewSite("h", "/idx", []Object{{URL: "/other"}}); err == nil {
		t.Error("missing base accepted")
	}
	if _, err := NewSite("h", "/a", []Object{{URL: "/a"}, {URL: "/a"}}); err == nil {
		t.Error("duplicate URL accepted")
	}
	if _, err := NewSite("h", "/a", []Object{{URL: ""}}); err == nil {
		t.Error("empty URL accepted")
	}
	site, err := NewSite("h", "/a", []Object{{URL: "/a", Size: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if site.BasePage().Size != 5 {
		t.Error("BasePage lookup wrong")
	}
}

func TestSiteDeterministicOrder(t *testing.T) {
	site, err := NewSite("h", "/a", []Object{
		{URL: "/c"}, {URL: "/a"}, {URL: "/b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/a", "/b", "/c"}
	objs := site.Objects()
	for i := range want {
		if objs[i].URL != want[i] {
			t.Fatalf("Objects order = %v", objs)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindText: "text", KindBinary: "binary", KindImage: "image", KindQuery: "query",
	} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", int(k), k.String())
		}
	}
}

// A Site is immutable: NewSite copies the caller's slice, so writing to it
// afterwards changes nothing the site serves.
func TestNewSiteCopiesObjects(t *testing.T) {
	objs := []Object{{URL: "/a", Size: 1}, {URL: "/b", Size: 2, Links: []string{"/a"}}}
	site, err := NewSite("h", "/a", objs)
	if err != nil {
		t.Fatal(err)
	}
	objs[0] = Object{URL: "/z", Size: 99}
	objs[1].Size = 77
	objs[1].URL = "/y"
	if o, ok := site.Lookup("/a"); !ok || o.Size != 1 {
		t.Errorf("Lookup(/a) = %+v, %v after the caller's write", o, ok)
	}
	if o, ok := site.Lookup("/b"); !ok || o.Size != 2 || o.URL != "/b" {
		t.Errorf("Lookup(/b) = %+v, %v after the caller's write", o, ok)
	}
	for _, u := range []string{"/z", "/y"} {
		if _, ok := site.Lookup(u); ok {
			t.Errorf("Lookup(%s) found an object the caller wrote after NewSite", u)
		}
	}
	if site.Len() != 2 || site.BasePage().Size != 1 {
		t.Errorf("Len = %d, BasePage = %+v", site.Len(), site.BasePage())
	}
	got := site.Objects()
	if len(got) != 2 || got[0].URL != "/a" || got[0].Size != 1 || got[1].URL != "/b" || got[1].Size != 2 {
		t.Errorf("Objects = %+v after the caller's write", got)
	}
}
