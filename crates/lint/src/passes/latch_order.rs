//! `latch-order`: inter-procedural lock-acquisition-order analysis.
//!
//! The storage engine has exactly one lock: `ConcurrentEngine.inner`, an
//! `Arc<Mutex<StorageEngine>>` that every `ClientSession` operation takes for
//! the duration of one engine call (`concurrent.rs`).  With a single
//! non-reentrant lock there is no order left to invert; the deadlock that
//! remains is *re-acquisition* — taking the engine lock, directly or through
//! a call, while a guard over it is still alive.  This pass derives the
//! lock graph from the code instead of trusting that description, so a
//! second lock, an inversion between the two, or a re-acquisition fails the
//! build the day it is written:
//!
//! 1. **Lock fields** — every `Mutex<_>` / `RwLock<_>` struct field in the
//!    `storage-engine` crate (also behind an `Arc`, and `Vec<Mutex<_>>`
//!    collections) becomes a graph node keyed `Struct.field`.
//! 2. **Acquisition sites** — `.lock()` / `.read()` / `.write()` calls whose
//!    receiver resolves (through `self`, struct-field chains like
//!    `self.engine.inner`, typed locals, and loop/closure variables over
//!    lock collections) to a lock field.
//! 3. **Scopes** — `let`-bound guards live until their enclosing brace
//!    closes or an explicit `drop(guard)`; temporary guards
//!    (`self.inner.lock().committed()`) are instantaneous.
//! 4. **Inter-procedural effects** — each function's transitive may-acquire
//!    set is computed to a fixpoint over the call graph (receiver-typed
//!    resolution: in a session method `self.engine.committed()` resolves to
//!    `ConcurrentEngine::committed`, which acquires `inner`).  Calling a
//!    function while holding a lock adds `held → callee-acquires` edges.
//! 5. **Cycles and re-acquisition** — any cycle in the resulting
//!    acquisition-order graph is a potential deadlock and fails the build.
//!    Re-acquiring a still-held scalar lock — in the same function, or by
//!    calling a function whose may-acquire set contains it — is reported
//!    directly.
//!
//! Collection locks (`Vec<Mutex<_>>`) are exempt from self-edges: acquiring
//! shard *i* then shard *j* is the documented ascending-index order, which an
//! index-insensitive analysis cannot distinguish — ascending iteration is
//! enforced by the `for … in &self.shards` idiom instead.
//!
//! Known approximation: a closure passed to a lock-taking combinator (e.g.
//! `with_backend(|b| …)`) is analysed as code of the *enclosing* function,
//! so locks taken inside the closure are not ordered against the
//! combinator's own lock.  The combinators' docs forbid calling back into
//! the engine from the closure; no current call site does.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::source::{AllowState, SourceFile};

/// Pass name used in diagnostics and allow directives.
pub const PASS: &str = "latch-order";

/// Crate directory the pass analyses.
pub const SCOPE_CRATE: &str = "storage-engine";

/// One resolved lock-acquisition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSite {
    /// Root-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Lock node key (`Struct.field`).
    pub lock: String,
}

/// One acquisition-order edge (`from` held while `to` acquired).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock held.
    pub from: String,
    /// Lock acquired (directly or via a call) while `from` was held.
    pub to: String,
    /// Site of the acquisition.
    pub file: String,
    /// 1-based line of the acquisition.
    pub line: usize,
}

/// Everything the pass learned, for coverage assertions and debugging.
#[derive(Debug, Clone, Default)]
pub struct LatchReport {
    /// All lock nodes discovered (`Struct.field` → is-collection).
    pub locks: BTreeMap<String, bool>,
    /// Every resolved acquisition site.
    pub sites: Vec<LockSite>,
    /// Acquisition-order edges.
    pub edges: Vec<LockEdge>,
    /// Transitive may-acquire set per function (`Type::fn` → lock keys).
    pub fn_acquires: BTreeMap<String, BTreeSet<String>>,
    /// Detected cycles (each a list of lock keys, first repeated implied).
    pub cycles: Vec<Vec<String>>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum FieldKind {
    Lock { collection: bool, inner: String },
    Plain { ty: String },
}

#[derive(Debug, Clone)]
struct FnInfo {
    owner: String, // "" for free functions
    name: String,
    file_idx: usize,
    /// Byte span of the body (including braces) in the file's joined text.
    body: (usize, usize),
    params: Vec<(String, String)>, // (name, normalized type)
}

struct FileText {
    rel: String,
    text: String,
    line_of: Vec<usize>,   // byte offset → 1-based line
    in_test: Vec<bool>,    // per 1-based line (index 0 unused)
}

fn join(f: &SourceFile) -> FileText {
    let mut text = String::new();
    let mut line_of = Vec::new();
    let mut in_test = vec![false];
    for (no, line) in f.numbered() {
        for _ in 0..line.code.len() + 1 {
            line_of.push(no);
        }
        text.push_str(&line.code);
        text.push('\n');
        in_test.push(line.in_test);
    }
    FileText {
        rel: f.rel.clone(),
        text,
        line_of,
        in_test,
    }
}

/// Strip references, lifetimes, smart-pointer wrappers and generics down to
/// the bare type name used for method resolution.
fn normalize_type(ty: &str) -> String {
    let mut t = ty.trim();
    loop {
        if let Some(r) = t.strip_prefix('&') {
            t = r.trim_start();
        } else if let Some(r) = t.strip_prefix("mut ") {
            t = r.trim_start();
        } else if let Some(r) = t.strip_prefix("dyn ") {
            t = r.trim_start();
        } else if t.starts_with('\'') {
            match t.find(char::is_whitespace) {
                Some(p) => t = t[p..].trim_start(),
                None => return String::new(),
            }
        } else if let Some(inner) = ["Arc<", "Rc<", "Box<", "Option<"]
            .iter()
            .find_map(|w| t.strip_prefix(w))
        {
            t = inner.trim_end_matches('>').trim();
        } else {
            break;
        }
    }
    let t = t.split(['<', '+']).next().unwrap_or("").trim();
    t.rsplit("::").next().unwrap_or("").trim().to_string()
}

fn ident_at_rev(text: &str, end: usize) -> (usize, String) {
    let bytes = text.as_bytes();
    let mut start = end;
    while start > 0 {
        let c = bytes[start - 1] as char;
        if c.is_alphanumeric() || c == '_' {
            start -= 1;
        } else {
            break;
        }
    }
    (start, text[start..end].to_string())
}

/// Position after skipping whitespace backwards from `pos` (so
/// `bytes[result - 1]` is the first non-whitespace char before `pos`).
fn skip_ws_rev(bytes: &[u8], mut pos: usize) -> usize {
    while pos > 0 && (bytes[pos - 1] as char).is_whitespace() {
        pos -= 1;
    }
    pos
}

/// Parse the receiver chain ending just before byte `end` (exclusive), e.g.
/// for `self.shards[i].lock()` with `end` at the `.` before `lock`, returns
/// `["self", "shards"]`.  Index expressions are skipped, and rustfmt-wrapped
/// chains (`self\n    .catalog\n    .read()`) are followed across lines.
fn receiver_chain(text: &str, mut end: usize) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut chain = Vec::new();
    loop {
        end = skip_ws_rev(bytes, end);
        // Skip a balanced [index] if present.
        while end > 0 && bytes[end - 1] as char == ']' {
            let mut depth = 0i32;
            let mut i = end;
            while i > 0 {
                i -= 1;
                match bytes[i] as char {
                    ']' => depth += 1,
                    '[' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if depth != 0 {
                return Vec::new();
            }
            end = i;
        }
        let (start, ident) = ident_at_rev(text, end);
        if ident.is_empty() {
            return Vec::new();
        }
        chain.push(ident);
        let before = skip_ws_rev(bytes, start);
        if before > 0 && bytes[before - 1] as char == '.' {
            end = before - 1;
        } else {
            chain.reverse();
            return chain;
        }
    }
}

#[derive(Debug, Clone)]
enum Binding {
    /// Guard over a scalar/collection lock; holds while in scope.
    Guard { lock: String, inner: String },
    /// Loop/closure variable ranging over a collection lock field's elements.
    CollElem { lock: String },
    /// Plainly typed local (fn parameter or typed construction).
    Typed { ty: String },
}

/// Run the pass.  Returns diagnostics plus the full report.
pub fn run(sources: &[SourceFile]) -> (Vec<Diagnostic>, LatchReport) {
    let scoped: Vec<&SourceFile> = sources
        .iter()
        .filter(|f| f.crate_dir.as_deref() == Some(SCOPE_CRATE))
        .collect();
    let texts: Vec<FileText> = scoped.iter().map(|f| join(f)).collect();

    // Phase A: struct fields.
    let mut structs: BTreeMap<String, BTreeMap<String, FieldKind>> = BTreeMap::new();
    let mut report = LatchReport::default();
    for ft in &texts {
        collect_structs(ft, &mut structs);
    }
    for (s, fields) in &structs {
        for (f, kind) in fields {
            if let FieldKind::Lock { collection, .. } = kind {
                report.locks.insert(format!("{s}.{f}"), *collection);
            }
        }
    }

    // Phase B: functions (impl-owned and free).
    let mut fns: Vec<FnInfo> = Vec::new();
    for (idx, ft) in texts.iter().enumerate() {
        collect_fns(ft, idx, &mut fns);
    }
    let fn_index: BTreeMap<(String, String), usize> = fns
        .iter()
        .enumerate()
        .map(|(i, f)| ((f.owner.clone(), f.name.clone()), i))
        .collect();

    // Phase C: per-function events.
    let mut events: Vec<Vec<Event>> = Vec::new();
    for info in &fns {
        events.push(extract_events(&texts[info.file_idx], info, &structs, &fn_index));
    }

    // Phase D: fixpoint of transitive may-acquire sets.
    let mut acquires: Vec<BTreeSet<String>> = vec![BTreeSet::new(); fns.len()];
    for (i, evs) in events.iter().enumerate() {
        for e in evs {
            if let EventKind::Acquire { lock, .. } = &e.kind {
                acquires[i].insert(lock.clone());
            }
        }
    }
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            let mut add: Vec<String> = Vec::new();
            for e in &events[i] {
                if let EventKind::Call { callee } = &e.kind {
                    for l in &acquires[*callee] {
                        if !acquires[i].contains(l) {
                            add.push(l.clone());
                        }
                    }
                }
            }
            for l in add {
                acquires[i].insert(l);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (i, info) in fns.iter().enumerate() {
        let key = if info.owner.is_empty() {
            info.name.clone()
        } else {
            format!("{}::{}", info.owner, info.name)
        };
        report.fn_acquires.insert(key, acquires[i].clone());
    }

    // Phase E: walk each function, building sites and edges.
    let mut diags: Vec<Diagnostic> = Vec::new();
    for (i, info) in fns.iter().enumerate() {
        let ft = &texts[info.file_idx];
        let mut held: Vec<(String, bool, i32)> = Vec::new(); // (lock, collection, depth)
        for e in &events[i] {
            match &e.kind {
                EventKind::Open => {}
                EventKind::Close(new_depth) => {
                    held.retain(|(_, _, d)| *d <= *new_depth);
                }
                EventKind::Drop(lock) => {
                    if let Some(p) = held.iter().rposition(|(l, _, _)| l == lock) {
                        held.remove(p);
                    }
                }
                EventKind::Acquire {
                    lock,
                    collection,
                    bound_depth,
                } => {
                    let line = ft.line_of[e.offset.min(ft.line_of.len() - 1)];
                    report.sites.push(LockSite {
                        file: ft.rel.clone(),
                        line,
                        lock: lock.clone(),
                    });
                    for (h, _, _) in &held {
                        if h == lock {
                            if !*collection {
                                push_diag(
                                    &mut diags,
                                    scoped[info.file_idx],
                                    line,
                                    format!(
                                        "lock `{lock}` re-acquired while already held \
                                         (self-deadlock on a non-reentrant latch)"
                                    ),
                                );
                            }
                        } else {
                            report.edges.push(LockEdge {
                                from: h.clone(),
                                to: lock.clone(),
                                file: ft.rel.clone(),
                                line,
                            });
                        }
                    }
                    if let Some(d) = bound_depth {
                        held.push((lock.clone(), *collection, *d));
                    }
                }
                EventKind::Call { callee } => {
                    let line = ft.line_of[e.offset.min(ft.line_of.len() - 1)];
                    for (h, collection, _) in &held {
                        for a in &acquires[*callee] {
                            if a != h {
                                report.edges.push(LockEdge {
                                    from: h.clone(),
                                    to: a.clone(),
                                    file: ft.rel.clone(),
                                    line,
                                });
                            } else if !*collection {
                                push_diag(
                                    &mut diags,
                                    scoped[info.file_idx],
                                    line,
                                    format!(
                                        "lock `{h}` re-acquired through this call while \
                                         already held (self-deadlock on a non-reentrant latch)"
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // Phase F: cycle detection over the edge graph.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &report.edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(start, vec![start])];
        while let Some((node, path)) = stack.pop() {
            if path.len() > adj.len() + 1 {
                continue;
            }
            for &next in adj.get(node).into_iter().flatten() {
                if next == start {
                    let mut cyc: Vec<String> = path.iter().map(|s| s.to_string()).collect();
                    // Canonical rotation so each cycle is reported once.
                    let min = cyc
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| s.as_str())
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cyc.rotate_left(min);
                    if seen_cycles.insert(cyc.clone()) {
                        report.cycles.push(cyc);
                    }
                } else if !path.contains(&next) {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
        }
    }
    for cyc in &report.cycles {
        let first = cyc.first().map(|s| s.as_str()).unwrap_or("");
        let site = report
            .edges
            .iter()
            .find(|e| e.from == *first || e.to == *first);
        let (file, line) = site.map(|e| (e.file.clone(), e.line)).unwrap_or_default();
        let mut chain = cyc.join(" -> ");
        chain.push_str(" -> ");
        chain.push_str(first);
        diags.push(Diagnostic::new(
            &file,
            line,
            PASS,
            format!("lock-order cycle (potential deadlock): {chain}"),
        ));
    }

    (diags, report)
}

fn push_diag(diags: &mut Vec<Diagnostic>, f: &SourceFile, line: usize, msg: String) {
    match f.allow_state(line, PASS) {
        AllowState::Allowed => {}
        _ => diags.push(Diagnostic::new(&f.rel, line, PASS, msg)),
    }
}

#[derive(Debug)]
enum EventKind {
    Open,
    Close(i32), // depth after the close
    Acquire {
        lock: String,
        collection: bool,
        /// `Some(depth)` when a `let`-bound guard is created.
        bound_depth: Option<i32>,
    },
    Call {
        callee: usize,
    },
    Drop(String),
}

#[derive(Debug)]
struct Event {
    offset: usize,
    kind: EventKind,
}

fn collect_structs(ft: &FileText, out: &mut BTreeMap<String, BTreeMap<String, FieldKind>>) {
    let text = &ft.text;
    let mut i = 0;
    while let Some(p) = text[i..].find("struct ") {
        let at = i + p;
        i = at + "struct ".len();
        let prev = text[..at].chars().next_back();
        if prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        if ft.in_test[ft.line_of[at]] {
            continue;
        }
        let rest = &text[i..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        // Skip generics, find the body opener; tuple/unit structs are not
        // interesting.
        let Some(brace_rel) = rest.find(['{', ';', '(']) else {
            continue;
        };
        if rest.as_bytes()[brace_rel] as char != '{' {
            continue;
        }
        let body_start = i + brace_rel;
        let Some(body_end) = matching_brace(text, body_start) else {
            continue;
        };
        let mut fields = BTreeMap::new();
        for seg in text[body_start + 1..body_end].split(',') {
            // A field is the last `name: Type` pair in the segment (earlier
            // lines of the segment are attributes or doc comments, already
            // masked to whitespace).
            let seg = seg.trim();
            let Some((name_part, ty_part)) = seg.split_once(':') else {
                continue;
            };
            let fname = name_part
                .rsplit(char::is_whitespace)
                .next()
                .unwrap_or("")
                .trim();
            if fname.is_empty() || !fname.chars().all(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            let ty = ty_part.trim();
            // A lock shared through an `Arc` is still one lock.
            let ty = ty.strip_prefix("Arc<").unwrap_or(ty);
            let kind = if let Some(inner) = ty
                .strip_prefix("Mutex<")
                .or_else(|| ty.strip_prefix("RwLock<"))
            {
                FieldKind::Lock {
                    collection: false,
                    inner: normalize_type(inner.trim_end_matches('>')),
                }
            } else if let Some(inner) = ty
                .strip_prefix("Vec<Mutex<")
                .or_else(|| ty.strip_prefix("Vec<RwLock<"))
            {
                FieldKind::Lock {
                    collection: true,
                    inner: normalize_type(inner.trim_end_matches('>')),
                }
            } else {
                FieldKind::Plain {
                    ty: normalize_type(ty),
                }
            };
            fields.insert(fname.to_string(), kind);
        }
        out.entry(name).or_default().append(&mut fields);
    }
}

fn matching_brace(text: &str, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (off, c) in text[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + off);
                }
            }
            _ => {}
        }
    }
    None
}

fn collect_fns(ft: &FileText, file_idx: usize, out: &mut Vec<FnInfo>) {
    let text = &ft.text;
    // Impl spans: (owner, start, end).
    let mut impls: Vec<(String, usize, usize)> = Vec::new();
    let mut i = 0;
    while let Some(p) = text[i..].find("impl") {
        let at = i + p;
        i = at + 4;
        let prev = text[..at].chars().next_back();
        let next = text[at + 4..].chars().next();
        if prev.is_some_and(|c| c.is_alphanumeric() || c == '_')
            || !next.is_some_and(|c| c.is_whitespace() || c == '<')
        {
            continue;
        }
        if ft.in_test[ft.line_of[at]] {
            continue;
        }
        let Some(brace_rel) = text[at..].find('{') else {
            continue;
        };
        let sig = &text[at..at + brace_rel];
        let owner_src = match sig.find(" for ") {
            Some(f) => &sig[f + 5..],
            None => {
                // `impl<...> Type` or `impl Type`.
                let s = sig.trim_start_matches("impl");
                let s = if s.trim_start().starts_with('<') {
                    match s.find('>') {
                        Some(g) => &s[g + 1..],
                        None => s,
                    }
                } else {
                    s
                };
                s
            }
        };
        let owner = normalize_type(owner_src.trim().trim_end_matches("where").trim());
        let start = at + brace_rel;
        let Some(end) = matching_brace(text, start) else {
            continue;
        };
        impls.push((owner, start, end));
    }

    let mut i = 0;
    while let Some(p) = text[i..].find("fn ") {
        let at = i + p;
        i = at + 3;
        let prev = text[..at].chars().next_back();
        if prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        if ft.in_test[ft.line_of[at]] {
            continue;
        }
        let rest = &text[at + 3..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        // Parameter list: balanced parens after the name (and generics).
        let Some(paren_rel) = rest.find('(') else {
            continue;
        };
        let popen = at + 3 + paren_rel;
        let Some(pclose) = matching_paren(text, popen) else {
            continue;
        };
        let params = parse_params(&text[popen + 1..pclose]);
        // Body: the next '{' before any ';' (trait method decls have none).
        let after = &text[pclose..];
        let body_rel = match (after.find('{'), after.find(';')) {
            (Some(b), Some(s)) if s < b => None,
            (Some(b), _) => Some(b),
            _ => None,
        };
        let Some(body_rel) = body_rel else {
            continue;
        };
        let body_start = pclose + body_rel;
        let Some(body_end) = matching_brace(text, body_start) else {
            continue;
        };
        let owner = impls
            .iter()
            .filter(|(_, s, e)| *s < at && at < *e)
            .map(|(o, _, _)| o.clone())
            .next_back()
            .unwrap_or_default();
        out.push(FnInfo {
            owner,
            name,
            file_idx,
            body: (body_start, body_end),
            params,
        });
    }
}

fn matching_paren(text: &str, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (off, c) in text[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + off);
                }
            }
            _ => {}
        }
    }
    None
}

fn parse_params(s: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    let mut parts = Vec::new();
    for c in s.chars() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(std::mem::take(&mut cur));
                continue;
            }
            _ => {}
        }
        cur.push(c);
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    for part in parts {
        let Some((name, ty)) = part.split_once(':') else {
            continue;
        };
        let name = name.trim().trim_start_matches("mut ").trim();
        if name.is_empty() || name == "self" || !name.chars().all(|c| c.is_alphanumeric() || c == '_')
        {
            continue;
        }
        let ty = normalize_type(ty);
        if !ty.is_empty() {
            out.push((name.to_string(), ty));
        }
    }
    out
}

/// Resolve a receiver chain to a lock field or a callee type.
enum Resolved {
    Lock { key: String, collection: bool, inner: String },
    Type(String),
    Unknown,
}

fn resolve_chain(
    chain: &[String],
    owner: &str,
    bindings: &BTreeMap<String, Binding>,
    structs: &BTreeMap<String, BTreeMap<String, FieldKind>>,
) -> Resolved {
    if chain.is_empty() {
        return Resolved::Unknown;
    }
    // Starting point: `self` (the impl owner) or a bound local.
    let (mut ty, mut rest): (String, &[String]) = if chain[0] == "self" {
        (owner.to_string(), &chain[1..])
    } else {
        match bindings.get(&chain[0]) {
            Some(Binding::Guard { lock, inner }) => {
                if rest_is_empty(&chain[1..]) {
                    // A guard itself re-locked makes no sense; treat the
                    // guard as its inner type for method calls.
                    return Resolved::Type(inner.clone());
                }
                let _ = lock;
                (inner.clone(), &chain[1..])
            }
            Some(Binding::CollElem { lock }) => {
                if chain.len() == 1 {
                    return Resolved::Lock {
                        key: lock.clone(),
                        collection: true,
                        inner: String::new(),
                    };
                }
                return Resolved::Unknown;
            }
            Some(Binding::Typed { ty }) => (ty.clone(), &chain[1..]),
            None => return Resolved::Unknown,
        }
    };
    while !rest.is_empty() {
        let Some(fields) = structs.get(&ty) else {
            return Resolved::Unknown;
        };
        match fields.get(&rest[0]) {
            Some(FieldKind::Lock { collection, inner }) => {
                if rest.len() == 1 {
                    return Resolved::Lock {
                        key: format!("{ty}.{}", rest[0]),
                        collection: *collection,
                        inner: inner.clone(),
                    };
                }
                return Resolved::Unknown;
            }
            Some(FieldKind::Plain { ty: t }) => {
                ty = t.clone();
                rest = &rest[1..];
            }
            None => return Resolved::Unknown,
        }
    }
    Resolved::Type(ty)
}

fn rest_is_empty(rest: &[String]) -> bool {
    rest.is_empty()
}

fn extract_events(
    ft: &FileText,
    info: &FnInfo,
    structs: &BTreeMap<String, BTreeMap<String, FieldKind>>,
    fn_index: &BTreeMap<(String, String), usize>,
) -> Vec<Event> {
    let text = &ft.text;
    let (bstart, bend) = info.body;
    let body = &text[bstart..=bend.min(text.len() - 1)];
    let mut bindings: BTreeMap<String, Binding> = BTreeMap::new();
    for (n, t) in &info.params {
        bindings.insert(n.clone(), Binding::Typed { ty: t.clone() });
    }

    // First pass over the body: loop/closure variables over lock collections.
    collect_collection_bindings(body, &info.owner, structs, &mut bindings);

    let mut events: Vec<Event> = Vec::new();
    let mut depth = 0i32;
    let bytes = body.as_bytes();
    let mut i = 0usize;
    while i < body.len() {
        let c = bytes[i] as char;
        match c {
            '{' => {
                depth += 1;
                events.push(Event {
                    offset: bstart + i,
                    kind: EventKind::Open,
                });
            }
            '}' => {
                depth -= 1;
                events.push(Event {
                    offset: bstart + i,
                    kind: EventKind::Close(depth),
                });
            }
            '.' => {
                for (m, is_lock) in [(".lock()", true), (".read()", true), (".write()", true)] {
                    if body[i..].starts_with(m) && is_lock {
                        let line = ft.line_of[bstart + i];
                        if ft.in_test[line] {
                            break;
                        }
                        let chain = receiver_chain(body, i);
                        if let Resolved::Lock {
                            key,
                            collection,
                            inner,
                        } = resolve_chain(&chain, &info.owner, &bindings, structs)
                        {
                            // A `let`-bound guard ends the statement right
                            // after the acquire.
                            let after = body[i + m.len()..].trim_start();
                            let bound = after.starts_with(';');
                            let guard_name = if bound {
                                let_binding_name(body, i)
                            } else {
                                None
                            };
                            let bound_depth = guard_name.as_ref().map(|_| depth);
                            if let Some(g) = &guard_name {
                                bindings.insert(
                                    g.clone(),
                                    Binding::Guard {
                                        lock: key.clone(),
                                        inner: inner.clone(),
                                    },
                                );
                            }
                            events.push(Event {
                                offset: bstart + i,
                                kind: EventKind::Acquire {
                                    lock: key,
                                    collection,
                                    bound_depth,
                                },
                            });
                            i += m.len() - 1;
                        }
                        break;
                    }
                }
            }
            '(' => {
                let line = ft.line_of[bstart + i];
                if ft.in_test[line] {
                    i += 1;
                    continue;
                }
                let (start, name) = ident_at_rev(body, i);
                if name.is_empty() || name == "drop" {
                    if name == "drop" {
                        // drop(guard) releases the guard early.
                        if let Some(close) = matching_paren(body, i) {
                            let arg = body[i + 1..close].trim();
                            if let Some(Binding::Guard { lock, .. }) = bindings.get(arg) {
                                events.push(Event {
                                    offset: bstart + i,
                                    kind: EventKind::Drop(lock.clone()),
                                });
                            }
                        }
                    }
                    i += 1;
                    continue;
                }
                if start > 0 && bytes[start - 1] as char == '!' {
                    i += 1;
                    continue; // macro invocation
                }
                // `Type::method(...)`.
                let before = skip_ws_rev(bytes, start);
                let callee = if before >= 2 && &body[before - 2..before] == "::" {
                    let (_, tyname) = ident_at_rev(body, before - 2);
                    fn_index.get(&(tyname, name.clone())).copied()
                } else if before > 0 && bytes[before - 1] as char == '.' {
                    let chain = receiver_chain(body, before - 1);
                    match resolve_chain(&chain, &info.owner, &bindings, structs) {
                        Resolved::Type(ty) => fn_index.get(&(ty, name.clone())).copied(),
                        _ => None,
                    }
                } else {
                    // Bare call: free function, or a method of the same
                    // impl called without `self.` does not exist in Rust,
                    // so only free functions resolve here.
                    fn_index.get(&(String::new(), name.clone())).copied()
                };
                if let Some(idx) = callee {
                    events.push(Event {
                        offset: bstart + i,
                        kind: EventKind::Call { callee: idx },
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
    events
}

/// Bind `for x in &self.shards`-style loop variables and `.iter().map(|s| …)`
/// closure variables over collection lock fields.
fn collect_collection_bindings(
    body: &str,
    owner: &str,
    structs: &BTreeMap<String, BTreeMap<String, FieldKind>>,
    bindings: &mut BTreeMap<String, Binding>,
) {
    let coll_key = |field: &str| -> Option<String> {
        let fields = structs.get(owner)?;
        match fields.get(field) {
            Some(FieldKind::Lock {
                collection: true, ..
            }) => Some(format!("{owner}.{field}")),
            _ => None,
        }
    };
    // `for <pat> in [&]self.<field>` (optionally `.iter()...`).
    let mut i = 0;
    while let Some(p) = body[i..].find("for ") {
        let at = i + p;
        i = at + 4;
        let prev = body[..at].chars().next_back();
        if prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        let Some(in_rel) = body[at..].find(" in ") else {
            continue;
        };
        let pat = &body[at + 4..at + in_rel];
        let var: String = pat
            .chars()
            .rev()
            .skip_while(|c| !c.is_alphanumeric() && *c != '_')
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        let expr_start = at + in_rel + 4;
        let expr = body[expr_start..]
            .lines()
            .next()
            .unwrap_or("")
            .trim_start_matches(['&', ' ']);
        if let Some(rest) = expr.strip_prefix("self.") {
            let field: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if let Some(key) = coll_key(&field) {
                if !var.is_empty() {
                    bindings.insert(var, Binding::CollElem { lock: key });
                }
            }
        }
    }
    // `self.<field>.iter()` … `|v|` closure binding.
    let mut i = 0;
    while let Some(p) = body[i..].find(".iter()") {
        let at = i + p;
        i = at + 7;
        let chain = receiver_chain(body, at);
        if chain.len() == 2 && chain[0] == "self" {
            if let Some(key) = coll_key(&chain[1]) {
                // Find the first closure after the iter() in this statement.
                let tail = &body[at..];
                let stmt_end = tail.find(';').unwrap_or(tail.len());
                let stmt = &tail[..stmt_end];
                if let Some(b1) = stmt.find('|') {
                    let after = &stmt[b1 + 1..];
                    if let Some(b2) = after.find('|') {
                        let var = after[..b2].trim();
                        if !var.is_empty()
                            && var.chars().all(|c| c.is_alphanumeric() || c == '_')
                        {
                            bindings
                                .insert(var.to_string(), Binding::CollElem { lock: key });
                        }
                    }
                }
            }
        }
    }
}

/// If the statement containing the acquire at `pos` is `let [mut] x = …;`,
/// return `x`.
fn let_binding_name(body: &str, pos: usize) -> Option<String> {
    let stmt_start = body[..pos]
        .rfind([';', '{', '}'])
        .map(|p| p + 1)
        .unwrap_or(0);
    let stmt = body[stmt_start..pos].trim_start();
    let rest = stmt.strip_prefix("let ")?;
    let rest = rest.trim_start().strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    let after = rest[name.len()..].trim_start();
    if name.is_empty() || !after.starts_with('=') {
        return None;
    }
    Some(name)
}
