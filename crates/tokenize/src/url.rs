//! Lightweight URL structural parsing.
//!
//! The custom feature set of Section 3.1 and the domain-memorisation
//! analysis of Section 6 need structural information that plain
//! tokenisation throws away:
//!
//! * the **top-level domain** (`.de`, `.com`, ...) — the ccTLD baselines of
//!   Section 3.2 and several custom features are driven by it;
//! * which tokens appear **before the first `/`** (the paper maintains
//!   separate counters for host and path, and the selected TLD features
//!   look only at the host part, e.g. the `de` in `http://de.wikipedia.org`);
//! * the **registered domain** ("domain" in the paper's footnote 12:
//!   `epfl.ch` for `ltaa.epfl.ch`, `cam.ac.uk` for `chu.cam.ac.uk`) — used
//!   by Figure 3 to measure how many test URLs have a domain already seen
//!   in training.
//!
//! A full RFC 3986 parser is not needed; this module implements the small,
//! robust subset relevant to feature extraction and never fails on garbage
//! input (the worst case is an empty host).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error type for [`ParsedUrl::parse_strict`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UrlParseError {
    /// The input was empty or contained no host-like component.
    EmptyHost,
}

impl fmt::Display for UrlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UrlParseError::EmptyHost => write!(f, "URL has no host component"),
        }
    }
}

impl std::error::Error for UrlParseError {}

/// Second-level labels that behave like TLD extensions (so that the
/// registered domain of `chu.cam.ac.uk` is `cam.ac.uk`, not `ac.uk`).
/// This is a small, hand-maintained subset of the public-suffix list that
/// covers the languages studied in the paper.
const SECOND_LEVEL_SUFFIXES: &[&str] = &[
    "ac.uk",
    "co.uk",
    "gov.uk",
    "org.uk",
    "me.uk",
    "net.uk",
    "ltd.uk",
    "plc.uk",
    "sch.uk",
    "com.au",
    "net.au",
    "org.au",
    "edu.au",
    "gov.au",
    "id.au",
    "asn.au",
    "co.nz",
    "net.nz",
    "org.nz",
    "govt.nz",
    "ac.nz",
    "school.nz",
    "com.ar",
    "gov.ar",
    "org.ar",
    "net.ar",
    "edu.ar",
    "com.mx",
    "gob.mx",
    "org.mx",
    "edu.mx",
    "net.mx",
    "com.co",
    "gov.co",
    "org.co",
    "edu.co",
    "net.co",
    "com.pe",
    "gob.pe",
    "org.pe",
    "edu.pe",
    "com.ve",
    "gob.ve",
    "org.ve",
    "co.at",
    "or.at",
    "ac.at",
    "gv.at",
    "co.it",
    "gov.it",
    "edu.it",
    "asso.fr",
    "gouv.fr",
    "com.fr",
    "com.es",
    "org.es",
    "gob.es",
    "edu.es",
    "nom.es",
];

/// A structurally parsed URL.
///
/// ```
/// use urlid_tokenize::ParsedUrl;
/// let u = ParsedUrl::parse("http://de.wikipedia.org/wiki/Berlin?x=1#top");
/// assert_eq!(u.host(), "de.wikipedia.org");
/// assert_eq!(u.tld(), Some("org"));
/// assert_eq!(u.registered_domain().as_deref(), Some("wikipedia.org"));
/// assert_eq!(u.path(), "/wiki/Berlin");
/// assert_eq!(u.host_labels(), vec!["de", "wikipedia", "org"]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParsedUrl {
    raw: String,
    scheme: Option<String>,
    host: String,
    port: Option<u16>,
    path: String,
    query: Option<String>,
    fragment: Option<String>,
}

impl ParsedUrl {
    /// Parse a URL leniently. Never fails: inputs without a recognisable
    /// host yield an empty host and the whole input as path.
    pub fn parse(url: &str) -> Self {
        Self::parse_inner(url)
    }

    /// Parse a URL, returning an error if no host component can be found.
    pub fn parse_strict(url: &str) -> Result<Self, UrlParseError> {
        let parsed = Self::parse_inner(url);
        if parsed.host.is_empty() {
            Err(UrlParseError::EmptyHost)
        } else {
            Ok(parsed)
        }
    }

    fn parse_inner(url: &str) -> Self {
        let parts = UrlParts::split(url);
        Self {
            raw: url.to_owned(),
            scheme: parts.scheme.map(str::to_ascii_lowercase),
            host: parts.host.to_ascii_lowercase(),
            port: parts.port,
            path: parts.path.to_owned(),
            query: parts.query.map(str::to_owned),
            fragment: parts.fragment.map(str::to_owned),
        }
    }

    /// The original string this URL was parsed from.
    pub fn raw(&self) -> &str {
        &self.raw
    }

    /// The URL scheme (lowercased), if present.
    pub fn scheme(&self) -> Option<&str> {
        self.scheme.as_deref()
    }

    /// The lowercased host, or `""` if none was found.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The port, if explicitly given.
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// The path (starting with `/`), or `""`.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The query string (without `?`), if present.
    pub fn query(&self) -> Option<&str> {
        self.query.as_deref()
    }

    /// The fragment (without `#`), if present.
    pub fn fragment(&self) -> Option<&str> {
        self.fragment.as_deref()
    }

    /// The dot-separated labels of the host, in order.
    pub fn host_labels(&self) -> Vec<&str> {
        if self.host.is_empty() {
            Vec::new()
        } else {
            self.host.split('.').filter(|l| !l.is_empty()).collect()
        }
    }

    /// The top-level domain (last host label), if any, excluding purely
    /// numeric labels (IP addresses have no TLD).
    pub fn tld(&self) -> Option<&str> {
        tld_of(&self.host)
    }

    /// The registered domain per the paper's footnote 12: the public suffix
    /// plus one label (`epfl.ch`, `cam.ac.uk`). Falls back to the host
    /// itself when it has fewer than two labels.
    pub fn registered_domain(&self) -> Option<String> {
        let labels = self.host_labels();
        if labels.is_empty() {
            return None;
        }
        if self.tld().is_none() {
            // IP address: the whole host is the "domain".
            return Some(self.host.clone());
        }
        if labels.len() <= 2 {
            return Some(labels.join("."));
        }
        let last_two = labels[labels.len() - 2..].join(".");
        let take = if SECOND_LEVEL_SUFFIXES.contains(&last_two.as_str()) {
            3
        } else {
            2
        };
        let take = take.min(labels.len());
        Some(labels[labels.len() - take..].join("."))
    }

    /// Everything before the first `/` after the scheme, i.e. the part of
    /// the URL in which the paper's "before the first slash" custom
    /// features look for country codes.
    pub fn before_first_slash(&self) -> &str {
        &self.host
    }

    /// Number of hyphens in the whole URL (one of the paper's custom
    /// features; hyphens are ~5x more frequent in German URLs than in
    /// English ones).
    pub fn hyphen_count(&self) -> usize {
        self.raw.bytes().filter(|&b| b == b'-').count()
    }

    /// URL depth: number of non-empty path segments.
    pub fn path_depth(&self) -> usize {
        path_depth_of(&self.path)
    }
}

/// The structural split of a URL, borrowed from the input: the
/// allocation-free core of [`ParsedUrl::parse`], which owns (and
/// lowercases) the same pieces. Hot paths that only read the pieces —
/// the compiled custom-feature transform — split without allocating.
///
/// Unlike [`ParsedUrl`], the scheme and host keep the input's case.
///
/// ```
/// use urlid_tokenize::UrlParts;
/// let u = UrlParts::split("http://user@De.Wikipedia.org.:80/wiki/Berlin?x=1#top");
/// assert_eq!(u.host(), "De.Wikipedia.org");
/// assert_eq!(u.port(), Some(80));
/// assert_eq!(u.tld(), Some("org"));
/// assert_eq!(u.path(), "/wiki/Berlin");
/// assert_eq!(u.query(), Some("x=1"));
/// assert_eq!(u.fragment(), Some("top"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UrlParts<'a> {
    scheme: Option<&'a str>,
    host: &'a str,
    port: Option<u16>,
    path: &'a str,
    query: Option<&'a str>,
    fragment: Option<&'a str>,
}

impl<'a> UrlParts<'a> {
    /// Split a URL leniently. Never fails: inputs without a
    /// recognisable host yield an empty host and the whole pre-query
    /// input as path.
    pub fn split(url: &'a str) -> Self {
        let trimmed = url.trim();

        // Fragment.
        let (before_frag, fragment) = match trimmed.split_once('#') {
            Some((a, b)) => (a, Some(b)),
            None => (trimmed, None),
        };
        // Query.
        let (before_query, query) = match before_frag.split_once('?') {
            Some((a, b)) => (a, Some(b)),
            None => (before_frag, None),
        };
        // Scheme.
        let (scheme, rest) = match Self::scheme_len(before_query) {
            Some(idx) => (Some(&before_query[..idx]), &before_query[idx + 3..]),
            None => (None, before_query),
        };
        // Host[:port] / path split.
        let (authority, path) = match rest.find('/') {
            Some(idx) => (&rest[..idx], &rest[idx..]),
            None => (rest, ""),
        };
        // Strip userinfo if present.
        let authority = authority.rsplit('@').next().unwrap_or(authority);
        let (host, port) = match authority.rsplit_once(':') {
            // If the part after the colon is not a valid port number, drop
            // it anyway: "example.com:notaport" still has host example.com.
            Some((h, p)) => (h, p.parse::<u16>().ok()),
            None => (authority, None),
        };
        let host = host.trim_end_matches('.');

        // A "host" that does not look like a hostname (no dot, or contains
        // characters illegal in hostnames) is treated as part of the path.
        let host_is_plausible = !host.is_empty()
            && host
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-')
            && (host.contains('.') || scheme.is_some());

        if host_is_plausible {
            Self {
                scheme,
                host,
                port,
                path,
                query,
                fragment,
            }
        } else {
            Self {
                scheme,
                host: "",
                port: None,
                path: before_query,
                query,
                fragment,
            }
        }
    }

    /// Length of the scheme `url` starts with: the text before its
    /// first `://`, provided that text is a non-empty run of ASCII
    /// alphanumerics, `+`, `-` and `.`. A `://` anywhere else — inside
    /// a query carrying another URL, say — marks no scheme. This is the
    /// scheme rule of [`UrlParts::split`], for callers that only need
    /// to know where the host starts.
    ///
    /// ```
    /// use urlid_tokenize::UrlParts;
    /// assert_eq!(UrlParts::scheme_len("svn+ssh://host/x"), Some(7));
    /// assert_eq!(UrlParts::scheme_len("www.a.de/?u=http://b.de/"), None);
    /// assert_eq!(UrlParts::scheme_len("://host"), None);
    /// ```
    pub fn scheme_len(url: &str) -> Option<usize> {
        let idx = url.find("://")?;
        let scheme = &url[..idx];
        let valid = !scheme.is_empty()
            && scheme
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'+' | b'-' | b'.'));
        valid.then_some(idx)
    }

    /// The URL scheme as written, if present.
    pub fn scheme(&self) -> Option<&'a str> {
        self.scheme
    }

    /// The host as written (trailing dots trimmed), or `""` if none was
    /// found.
    pub fn host(&self) -> &'a str {
        self.host
    }

    /// The port, if explicitly given.
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// The path (starting with `/`), or `""`; without a plausible host,
    /// the whole input before the query.
    pub fn path(&self) -> &'a str {
        self.path
    }

    /// The query string (without `?`), if present.
    pub fn query(&self) -> Option<&'a str> {
        self.query
    }

    /// The fragment (without `#`), if present.
    pub fn fragment(&self) -> Option<&'a str> {
        self.fragment
    }

    /// The top-level domain as written: [`ParsedUrl::tld`] before
    /// lowercasing.
    pub fn tld(&self) -> Option<&'a str> {
        tld_of(self.host)
    }

    /// URL depth: number of non-empty path segments.
    pub fn path_depth(&self) -> usize {
        path_depth_of(self.path)
    }
}

/// The last non-empty host label, unless it is purely numeric (IP
/// addresses have no TLD).
fn tld_of(host: &str) -> Option<&str> {
    let last = host.rsplit('.').find(|l| !l.is_empty())?;
    if last.chars().all(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(last)
    }
}

/// Number of non-empty `/`-separated segments of a path.
fn path_depth_of(path: &str) -> usize {
    path.split('/').filter(|s| !s.is_empty()).count()
}

impl fmt::Display for ParsedUrl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_url_round_trip() {
        let u = ParsedUrl::parse("https://user@sub.example.co.uk:8080/a/b.html?q=1#frag");
        assert_eq!(u.scheme(), Some("https"));
        assert_eq!(u.host(), "sub.example.co.uk");
        assert_eq!(u.port(), Some(8080));
        assert_eq!(u.path(), "/a/b.html");
        assert_eq!(u.query(), Some("q=1"));
        assert_eq!(u.fragment(), Some("frag"));
        assert_eq!(u.tld(), Some("uk"));
        assert_eq!(u.registered_domain().as_deref(), Some("example.co.uk"));
        assert_eq!(u.path_depth(), 2);
    }

    #[test]
    fn paper_footnote_examples() {
        // Footnote 12 of the paper.
        let a = ParsedUrl::parse("http://ltaa.epfl.ch/algorithms.html");
        assert_eq!(a.registered_domain().as_deref(), Some("epfl.ch"));
        let b = ParsedUrl::parse("http://chu.cam.ac.uk/");
        assert_eq!(b.registered_domain().as_deref(), Some("cam.ac.uk"));
    }

    #[test]
    fn missing_scheme_is_tolerated() {
        let u = ParsedUrl::parse("www.example.de/page");
        assert_eq!(u.scheme(), None);
        assert_eq!(u.host(), "www.example.de");
        assert_eq!(u.tld(), Some("de"));
        assert_eq!(u.path(), "/page");
    }

    #[test]
    fn bare_host_has_empty_path() {
        let u = ParsedUrl::parse("http://example.fr");
        assert_eq!(u.host(), "example.fr");
        assert_eq!(u.path(), "");
        assert_eq!(u.path_depth(), 0);
    }

    #[test]
    fn garbage_input_never_panics() {
        for s in [
            "",
            "   ",
            "::::",
            "not a url at all",
            "http://",
            "?q=1",
            "#x",
        ] {
            let u = ParsedUrl::parse(s);
            assert!(u.host().is_empty(), "host should be empty for {s:?}");
            assert!(u.registered_domain().is_none() || !u.host().is_empty());
        }
        assert!(ParsedUrl::parse_strict("").is_err());
        assert!(ParsedUrl::parse_strict("http://example.com").is_ok());
    }

    #[test]
    fn ip_address_has_no_tld() {
        let u = ParsedUrl::parse("http://192.168.0.1/admin");
        assert_eq!(u.tld(), None);
        assert_eq!(u.registered_domain().as_deref(), Some("192.168.0.1"));
    }

    #[test]
    fn invalid_port_is_ignored() {
        let u = ParsedUrl::parse("http://example.com:notaport/x");
        assert_eq!(u.host(), "example.com");
        assert_eq!(u.port(), None);
    }

    #[test]
    fn hyphen_count_counts_whole_url() {
        let u = ParsedUrl::parse("http://wasserbett-test.com/billig-kaufen/a-b");
        assert_eq!(u.hyphen_count(), 3);
    }

    #[test]
    fn registered_domain_second_level_suffixes() {
        assert_eq!(
            ParsedUrl::parse("http://shop.foo.com.au/")
                .registered_domain()
                .as_deref(),
            Some("foo.com.au")
        );
        assert_eq!(
            ParsedUrl::parse("http://foo.gouv.fr/")
                .registered_domain()
                .as_deref(),
            Some("foo.gouv.fr")
        );
        assert_eq!(
            ParsedUrl::parse("http://a.b.c.example.de/")
                .registered_domain()
                .as_deref(),
            Some("example.de")
        );
    }

    #[test]
    fn display_round_trips_raw() {
        let raw = "http://www.example.com/a?b=c";
        assert_eq!(ParsedUrl::parse(raw).to_string(), raw);
    }

    #[test]
    fn trailing_dot_host_is_normalised() {
        let u = ParsedUrl::parse("http://example.com./x");
        assert_eq!(u.host(), "example.com");
        assert_eq!(u.tld(), Some("com"));
    }

    #[test]
    fn borrowed_split_is_the_parse_before_lowercasing() {
        for url in [
            "https://user@Sub.Example.CO.uk:8080/a/b.html?q=1#frag",
            "HTTP://WWW.EXAMPLE.DE/Pfad",
            "www.example.de/page",
            "http://example.com./x",
            "http://192.168.0.1:80/admin?x",
            "not a url at all?q=Zwei",
            "  http://padded.de/x  ",
            "?q=1",
            "",
        ] {
            let parts = UrlParts::split(url);
            let parsed = ParsedUrl::parse(url);
            assert_eq!(parts.host().to_ascii_lowercase(), parsed.host(), "{url}");
            assert_eq!(
                parts.scheme().map(str::to_ascii_lowercase).as_deref(),
                parsed.scheme(),
                "{url}"
            );
            assert_eq!(parts.port(), parsed.port(), "{url}");
            assert_eq!(parts.path(), parsed.path(), "{url}");
            assert_eq!(parts.query(), parsed.query(), "{url}");
            assert_eq!(parts.fragment(), parsed.fragment(), "{url}");
            assert_eq!(
                parts.tld().map(str::to_ascii_lowercase).as_deref(),
                parsed.tld(),
                "{url}"
            );
            assert_eq!(parts.path_depth(), parsed.path_depth(), "{url}");
        }
    }

    #[test]
    fn uppercase_host_is_lowercased() {
        let u = ParsedUrl::parse("HTTP://WWW.EXAMPLE.DE/Pfad");
        assert_eq!(u.host(), "www.example.de");
        assert_eq!(u.path(), "/Pfad");
    }
}
