//! The syntax/dataflow rules A6–A9, built on [`crate::syntax`].
//!
//! These rules need more than a token window: *is this name bound to a
//! hash container*, *is this token inside a loop body / a `spawn`
//! closure*, *does the rest of the statement restore an order*. The
//! [`syntax`] layer answers those questions from brace matching and
//! binding collection alone; the rules stay type-blind, deterministic,
//! and justifiable with a one-line comment when the analyzer cannot
//! see why a site is safe:
//!
//! | Rule | Marker | What it guards |
//! |------|--------|----------------|
//! | A6   | `// order:` | hash-map/set iteration feeding order-sensitive consumers |
//! | A7   | `// sync:`  | mutable/interior-mutable captures crossing `thread::scope` spawns |
//! | A8   | `// cast:`  | lossy `as` narrowing on id-carrying values |
//! | A9   | `// alloc:` | allocation in hot-path loops |

use std::collections::BTreeSet;

use crate::lexer::{TokKind, Token};
use crate::rules::{annotated, emit, FileClass, FileUnit, Finding, Rule};
use crate::syntax::{self, Structure};

/// Hot-path modules rule A9 protects: the Solve/Measure kernels where
/// per-iteration allocation is a measured regression (BENCH_cpla.json
/// alloc rollups), not a style preference, and the router's maze
/// search, whose per-call buffers are reused across calls.
pub const HOT_MODULES: &[&str] = &[
    "crates/solver/src/sdp.rs",
    "crates/solver/src/eigen.rs",
    "crates/solver/src/cholesky.rs",
    "crates/solver/src/matrix.rs",
    "crates/solver/src/ilp.rs",
    "crates/timing/src/elmore.rs",
    "crates/timing/src/incremental.rs",
    "crates/timing/src/soa.rs",
    "crates/timing/src/slack.rs",
    "crates/cpla/src/flow.rs",
    "crates/cpla/src/engine.rs",
    "crates/cpla/src/context.rs",
    "crates/cpla/src/problem.rs",
    "crates/cpla/src/mapping.rs",
    "crates/cpla/src/partition.rs",
    "crates/route/src/maze.rs",
];

/// Files exempt from A8: the arena/id minting layer itself, where the
/// `usize → u32` packing *is* the newtype constructor's contract.
/// `tree.rs` mints the per-net u32 link words the ids point into.
const A8_EXEMPT: &[&str] = &[
    "crates/net/src/ids.rs",
    "crates/net/src/arena.rs",
    "crates/net/src/tree.rs",
];

/// Iterator-producing methods of `HashMap`/`HashSet` whose order is
/// nondeterministic.
const HASH_ITERS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Idents whose presence in the same statement makes a hash iteration
/// order-safe: an explicit re-sort, a collect into an ordered
/// container, or an order-insensitive reduction.
const ORDER_SAFE: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "sum",
    "product",
    "count",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "all",
    "any",
];

/// Exact id-carrying identifier names for rule A8 (besides the
/// `*_id`/`*_idx`/`*_index` suffix families).
const ID_NAMES: &[&str] = &[
    "id", "idx", "index", "net", "seg", "node", "pin", "ni", "si", "pi", "shard", "lane", "slot",
];

/// Id newtype constructors: a narrowing cast inside their argument
/// list is id-carrying by construction.
const ID_CTORS: &[&str] = &["NetId", "SegId", "NodeId", "SegmentRef"];

/// Allocating calls rule A9 flags inside hot loops.
const ALLOC_METHODS: &[&str] = &["collect", "clone", "to_vec", "to_owned"];

fn is_punct(t: &Token, text: &str) -> bool {
    t.kind == TokKind::Punct && t.text == text
}

fn is_ident(t: &Token, text: &str) -> bool {
    t.kind == TokKind::Ident && t.text == text
}

/// Runs the dataflow rules applicable to `file`.
pub fn check(file: &FileUnit, findings: &mut Vec<Finding>) {
    if file.class == FileClass::Test {
        return;
    }
    let structure = syntax::analyze(&file.lexed);
    if file.class == FileClass::Lib {
        rule_a6(file, findings);
    }
    rule_a7(file, findings);
    if !A8_EXEMPT.contains(&file.path.as_str()) {
        rule_a8(file, findings);
    }
    if HOT_MODULES.contains(&file.path.as_str()) {
        rule_a9(file, &structure, findings);
    }
}

/// The statement span around token `site`: scans back to the previous
/// `;`/`{`/`}` at balanced depth and forward to the next `;` (or a `{`
/// opening a block) at balanced depth. Both bounds are exclusive of
/// the delimiter.
fn stmt_span(toks: &[Token], site: usize) -> (usize, usize) {
    let mut lo = site;
    let mut depth = 0i64;
    while lo > 0 {
        let t = &toks[lo - 1];
        match t.text.as_str() {
            ")" | "]" | "}" if t.kind == TokKind::Punct => depth += 1,
            "(" | "[" | "{" if t.kind == TokKind::Punct => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ";" if depth == 0 => break,
            _ => {}
        }
        lo -= 1;
    }
    let mut hi = site;
    let mut depth = 0i64;
    while hi < toks.len() {
        let t = &toks[hi];
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" => {
                if depth == 0 {
                    break;
                }
                depth += 1;
            }
            "}" => depth -= 1,
            ";" if depth == 0 => break,
            _ => {}
        }
        hi += 1;
    }
    (lo, hi)
}

/// Whether the statement around `site` contains an order-restoring or
/// order-insensitive ident (outside the flagged receiver itself), or
/// is a `let` binding whose name is sorted shortly after — the
/// canonical collect-into-`Vec`-then-`sort` shape.
fn stmt_is_order_safe(toks: &[Token], site: usize) -> bool {
    let (lo, hi) = stmt_span(toks, site);
    // A statement opening a block also reads the block's header
    // (fn signature / match scrutinee): a `-> BTreeMap<…>` return
    // type re-orders a tail-expression hash iteration.
    let mut scan_lo = lo;
    if lo > 0 && is_punct(&toks[lo - 1], "{") {
        scan_lo = lo - 1; // step over the `{` into the header
        let mut steps = 0;
        while scan_lo > 0 && steps < 40 {
            let t = &toks[scan_lo - 1];
            if is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}") {
                break;
            }
            scan_lo -= 1;
            steps += 1;
        }
    }
    if toks[scan_lo..hi]
        .iter()
        .any(|t| t.kind == TokKind::Ident && ORDER_SAFE.contains(&t.text.as_str()))
    {
        return true;
    }
    if toks.get(lo).map(|t| is_ident(t, "let")) != Some(true) {
        return false;
    }
    let mut n = lo + 1;
    if toks.get(n).map(|t| is_ident(t, "mut")) == Some(true) {
        n += 1;
    }
    let Some(name_tok) = toks.get(n).filter(|t| t.kind == TokKind::Ident) else {
        return false;
    };
    let name = name_tok.text.as_str();
    toks[hi..toks.len().min(hi + 120)].windows(3).any(|w| {
        is_ident(&w[0], name)
            && is_punct(&w[1], ".")
            && w[2].kind == TokKind::Ident
            && w[2].text.starts_with("sort")
    })
}

/// A6 — iterating a `HashMap`/`HashSet` yields a nondeterministic
/// order; anywhere that order can feed merges, accumulation or output,
/// the statement must restore one (sort, BTree collect, or an
/// order-insensitive reduction) or carry an adjacent `// order:`
/// justification.
fn rule_a6(file: &FileUnit, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    let bind = syntax::hash_bindings(&file.lexed);
    if bind.direct.is_empty() && bind.element.is_empty() {
        return;
    }
    let hashy_receiver = |i: usize| -> Option<String> {
        // `name.meth` → name; `name[…].meth` → name (element or direct).
        let prev = i.checked_sub(1)?;
        let t = &toks[prev];
        if t.kind == TokKind::Ident && bind.direct.contains(&t.text) {
            return Some(t.text.clone());
        }
        if is_punct(t, "]") {
            let mut depth = 0i64;
            let mut j = prev;
            loop {
                match toks[j].text.as_str() {
                    "]" => depth += 1,
                    "[" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j = j.checked_sub(1)?;
            }
            let base = &toks[j.checked_sub(1)?];
            if base.kind == TokKind::Ident
                && (bind.element.contains(&base.text) || bind.direct.contains(&base.text))
            {
                return Some(format!("{}[..]", base.text));
            }
        }
        None
    };
    for i in 0..toks.len() {
        if file.lexed.in_test[i] {
            continue;
        }
        let t = &toks[i];
        // Site A: `recv.iter()`-family calls on a hash-bound receiver.
        if t.kind == TokKind::Ident
            && HASH_ITERS.contains(&t.text.as_str())
            && i >= 2
            && is_punct(&toks[i - 1], ".")
            && toks.get(i + 1).map(|n| is_punct(n, "(")) == Some(true)
        {
            if let Some(recv) = hashy_receiver(i - 1) {
                if !stmt_is_order_safe(toks, i)
                    && !annotated(&file.lexed, t.line, "order:", Rule::A6)
                {
                    emit(
                        file,
                        findings,
                        t.line,
                        Rule::A6,
                        &format!("{recv}.{}()", t.text),
                        "hash iteration order is nondeterministic; sort or reduce \
                         order-insensitively before results feed merges/output, or \
                         justify with `// order:`",
                    );
                }
            }
            continue;
        }
        // Site B: `for pat in [&]recv { … }` over a hash-bound name.
        if is_ident(t, "for") && toks.get(i + 1).map(|n| is_punct(n, "<")) != Some(true) {
            let Some(body) = (i..toks.len()).find(|&k| is_punct(&toks[k], "{")) else {
                continue;
            };
            let Some(in_at) = (i..body).find(|&k| is_ident(&toks[k], "in")) else {
                continue;
            };
            // Root of the iterated expression: skip `&`/`mut`/`*`/`(`,
            // then walk a dotted ident chain.
            let mut j = in_at + 1;
            while j < body
                && (is_punct(&toks[j], "&")
                    || is_punct(&toks[j], "*")
                    || is_punct(&toks[j], "(")
                    || is_ident(&toks[j], "mut"))
            {
                j += 1;
            }
            let mut last_ident: Option<usize> = None;
            while j < body && toks[j].kind == TokKind::Ident {
                last_ident = Some(j);
                if toks.get(j + 1).map(|n| is_punct(n, ".")) == Some(true) {
                    j += 2;
                } else {
                    j += 1;
                    break;
                }
            }
            let Some(root) = last_ident else { continue };
            let name = &toks[root].text;
            let next = toks.get(j);
            let flagged = match next {
                // `name(...)` — a call, handled by site A if hashy.
                Some(n) if is_punct(n, "(") => None,
                // `name[i]` — element access into a hash-of-… binding.
                Some(n)
                    if is_punct(n, "[")
                        && (bind.element.contains(name) || bind.direct.contains(name)) =>
                {
                    Some(format!("for … in {name}[..]"))
                }
                _ if bind.direct.contains(name) => Some(format!("for … in {name}")),
                _ => None,
            };
            if let Some(token) = flagged {
                let line = toks[i].line;
                if !annotated(&file.lexed, line, "order:", Rule::A6) {
                    emit(
                        file,
                        findings,
                        line,
                        Rule::A6,
                        &token,
                        "the loop body observes a nondeterministic hash order; iterate \
                         a sorted view, or justify order-insensitivity with `// order:`",
                    );
                }
            }
        }
    }
}

/// A7 — inside a `thread::scope`, a `spawn` closure may not capture
/// mutable state (`&mut` on a non-local) or interior mutability
/// (`RefCell`/`UnsafeCell`, `static mut`) without a `// sync:`
/// happens-before justification. The blessed patterns write no such
/// token inside the closure: per-shard ledgers move a disjoint `&mut`
/// in from an `iter_mut` *outside*, atomics go through `Ordering`
/// (already A3-guarded), and `Mutex` access is a `.lock()` call.
fn rule_a7(file: &FileUnit, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        if file.lexed.in_test[i] {
            continue;
        }
        // `…::scope(|s| …)` — the region a scoped-thread body spans.
        if !(is_ident(&toks[i], "scope")
            && i > 0
            && is_punct(&toks[i - 1], "::")
            && toks.get(i + 1).map(|n| is_punct(n, "(")) == Some(true))
        {
            continue;
        }
        let region_end = syntax::matching_close(toks, i + 1);
        let mut k = i + 2;
        while k < region_end {
            // `.spawn(` inside the scope region.
            if !(is_ident(&toks[k], "spawn")
                && is_punct(&toks[k - 1], ".")
                && toks.get(k + 1).map(|n| is_punct(n, "(")) == Some(true))
            {
                k += 1;
                continue;
            }
            let spawn_close = syntax::matching_close(toks, k + 1);
            let mut c = k + 2;
            if toks.get(c).map(|t| is_ident(t, "move")) == Some(true) {
                c += 1;
            }
            let (params, body_start) = match toks.get(c) {
                Some(t) if is_punct(t, "|") || is_punct(t, "||") => syntax::closure_params(toks, c),
                _ => {
                    k += 1;
                    continue;
                }
            };
            let body_end = if toks.get(body_start).map(|t| is_punct(t, "{")) == Some(true) {
                syntax::matching_close(toks, body_start)
            } else {
                spawn_close
            };
            let mut locals = syntax::locals_in(toks, body_start, body_end);
            locals.extend(params);
            scan_spawn_body(file, toks, body_start, body_end, &locals, findings);
            k = body_end.max(k + 1);
        }
    }
}

fn scan_spawn_body(
    file: &FileUnit,
    toks: &[Token],
    lo: usize,
    hi: usize,
    locals: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    let hi = hi.min(toks.len());
    for p in lo..hi {
        let t = &toks[p];
        // `&mut name` on a name not declared inside the closure: a
        // captured mutable borrow crossing the spawn boundary.
        if is_punct(t, "&")
            && toks.get(p + 1).map(|n| is_ident(n, "mut")) == Some(true)
            && toks.get(p + 2).map(|n| n.kind == TokKind::Ident) == Some(true)
        {
            let name = &toks[p + 2].text;
            if !locals.contains(name) && !annotated(&file.lexed, t.line, "sync:", Rule::A7) {
                emit(
                    file,
                    findings,
                    t.line,
                    Rule::A7,
                    &format!("&mut {name}"),
                    "a mutable borrow captured across a scoped spawn needs a \
                     `// sync:` comment stating why accesses cannot race \
                     (per-shard disjointness, join-before-read, …)",
                );
            }
        }
        // Interior mutability inside a spawn closure.
        if (is_ident(t, "RefCell") || is_ident(t, "UnsafeCell"))
            && !annotated(&file.lexed, t.line, "sync:", Rule::A7)
        {
            emit(
                file,
                findings,
                t.line,
                Rule::A7,
                &t.text,
                "interior mutability inside a scoped spawn needs a `// sync:` \
                 happens-before justification (or use Mutex/atomics)",
            );
        }
        if is_ident(t, "static")
            && toks.get(p + 1).map(|n| is_ident(n, "mut")) == Some(true)
            && !annotated(&file.lexed, t.line, "sync:", Rule::A7)
        {
            emit(
                file,
                findings,
                t.line,
                Rule::A7,
                "static mut",
                "`static mut` touched from a scoped spawn is a data race by \
                 default; justify with `// sync:` or use an atomic",
            );
        }
    }
}

fn id_ish(name: &str) -> bool {
    ID_NAMES.contains(&name)
        || name.ends_with("_id")
        || name.ends_with("_idx")
        || name.ends_with("_index")
}

/// A8 — a lossy `as` narrowing on an id-carrying value silently
/// truncates once a design outgrows the cast; id constructions must
/// use `try_from` (with a checked error) or carry a `// cast:` comment
/// stating the bound that makes the cast exact.
fn rule_a8(file: &FileUnit, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        if file.lexed.in_test[i] || !is_ident(&toks[i], "as") || i == 0 {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        let narrowing = matches!(target.text.as_str(), "u32" | "u16" | "i32" | "i64");
        let to_usize = target.text == "usize";
        if (!narrowing && !to_usize) || target.kind != TokKind::Ident {
            continue;
        }
        // Classify the source expression immediately left of `as`.
        let prev = &toks[i - 1];
        let mut idish = false;
        let mut float_src = false;
        if prev.kind == TokKind::Ident {
            idish = id_ish(&prev.text);
        } else if prev.kind == TokKind::Float {
            float_src = true;
        } else if is_punct(prev, ")") {
            // Walk back to the matching `(`.
            let mut depth = 0i64;
            let mut open = i - 1;
            loop {
                match toks[open].text.as_str() {
                    ")" => depth += 1,
                    "(" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if open == 0 {
                    break;
                }
                open -= 1;
            }
            let callee = open.checked_sub(1).map(|b| &toks[b]);
            if let Some(c) = callee.filter(|c| c.kind == TokKind::Ident) {
                // A call `callee(…)` — the callee name and its receiver
                // (`recv.callee(…)`) both witness id-ness; float-return
                // helpers witness a float→int truncation.
                idish = id_ish(&c.text);
                float_src |= matches!(c.text.as_str(), "floor" | "ceil" | "round");
                if let (Some(dot), Some(recv)) = (open.checked_sub(2), open.checked_sub(3)) {
                    if is_punct(&toks[dot], ".") && toks[recv].kind == TokKind::Ident {
                        idish |= id_ish(&toks[recv].text);
                    }
                }
            } else {
                // A grouped expression `(a + b) as …`: any id-ish ident
                // or float literal inside witnesses.
                for t in &toks[open..i - 1] {
                    if t.kind == TokKind::Ident && id_ish(&t.text) {
                        idish = true;
                    }
                    if t.kind == TokKind::Float {
                        float_src = true;
                    }
                }
            }
        } else if is_punct(prev, "]") {
            // `base[…] as …` — the indexed base witnesses.
            let mut depth = 0i64;
            let mut open = i - 1;
            loop {
                match toks[open].text.as_str() {
                    "]" => depth += 1,
                    "[" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if open == 0 {
                    break;
                }
                open -= 1;
            }
            if let Some(base) = open.checked_sub(1).map(|b| &toks[b]) {
                if base.kind == TokKind::Ident {
                    idish = id_ish(&base.text);
                }
            }
        }
        // A cast written directly inside an id-newtype constructor's
        // argument list is id-carrying by construction.
        let in_ctor = enclosing_id_ctor(toks, i);
        let lossy = narrowing || (to_usize && float_src);
        if !lossy || !(idish || in_ctor) {
            continue;
        }
        let line = toks[i].line;
        if annotated(&file.lexed, line, "cast:", Rule::A8) {
            continue;
        }
        emit(
            file,
            findings,
            line,
            Rule::A8,
            &format!("as {}", target.text),
            "lossy narrowing on an id-carrying value truncates silently at scale; \
             use `try_from` or state the bound with `// cast:`",
        );
    }
}

/// Whether token `i` sits inside the argument list of an id-newtype
/// constructor call (`NetId::new(…)`, `SegmentRef::new(…)`, …).
fn enclosing_id_ctor(toks: &[Token], i: usize) -> bool {
    let mut depth = 0i64;
    let mut j = i;
    while j > 0 {
        j -= 1;
        match toks[j].text.as_str() {
            ")" => depth += 1,
            "(" => {
                if depth == 0 {
                    // Found the nearest unclosed `(` — check for the
                    // `Ctor :: new (` shape.
                    return j >= 3
                        && is_ident(&toks[j - 1], "new")
                        && is_punct(&toks[j - 2], "::")
                        && toks[j - 3].kind == TokKind::Ident
                        && ID_CTORS.contains(&toks[j - 3].text.as_str());
                }
                depth -= 1;
            }
            ";" | "{" | "}" if depth == 0 => return false,
            _ => {}
        }
    }
    false
}

/// A9 — allocation inside a hot-path loop (`Vec::new`/`with_capacity`,
/// `vec![…]`, `.collect()`, `.clone()`, `.to_vec()`, `.to_owned()`)
/// shows up directly in the Solve alloc rollups; hoist the buffer out
/// of the loop or state why the allocation is intentional with
/// `// alloc:`.
fn rule_a9(file: &FileUnit, structure: &Structure, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        if file.lexed.in_test[i] || structure.loop_depth[i] == 0 {
            continue;
        }
        let t = &toks[i];
        let flagged: Option<String> = if (is_ident(t, "Vec") || is_ident(t, "String"))
            && toks.get(i + 1).map(|n| is_punct(n, "::")) == Some(true)
            && toks
                .get(i + 2)
                .map(|n| is_ident(n, "new") || is_ident(n, "with_capacity"))
                == Some(true)
            && toks.get(i + 3).map(|n| is_punct(n, "(")) == Some(true)
        {
            Some(format!("{}::{}", t.text, toks[i + 2].text))
        } else if is_ident(t, "vec") && toks.get(i + 1).map(|n| is_punct(n, "!")) == Some(true) {
            Some("vec![…]".to_string())
        } else if t.kind == TokKind::Ident
            && ALLOC_METHODS.contains(&t.text.as_str())
            && i > 0
            && is_punct(&toks[i - 1], ".")
            && toks.get(i + 1).map(|n| is_punct(n, "(")) == Some(true)
        {
            Some(format!(".{}()", t.text))
        } else {
            None
        };
        let Some(token) = flagged else { continue };
        if annotated(&file.lexed, t.line, "alloc:", Rule::A9) {
            continue;
        }
        emit(
            file,
            findings,
            t.line,
            Rule::A9,
            &token,
            "allocation inside a hot-path loop; hoist/reuse the buffer across \
             iterations, or justify with `// alloc:`",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn unit(src: &str, path: &str, class: FileClass) -> FileUnit {
        FileUnit {
            path: path.to_string(),
            crate_name: "x".to_string(),
            class,
            lexed: lex(src),
        }
    }

    fn run(src: &str, path: &str, class: FileClass) -> Vec<Finding> {
        let mut f = Vec::new();
        check(&unit(src, path, class), &mut f);
        f
    }

    const LIB: &str = "crates/x/src/lib.rs";

    #[test]
    fn a6_flags_unsorted_hash_iteration() {
        let src = "fn f() { let mut m = HashMap::new(); for (k, v) in &m { out.push(v); } }";
        let f = run(src, LIB, FileClass::Lib);
        assert_eq!(f.iter().filter(|x| x.rule == Rule::A6).count(), 1, "{f:?}");
    }

    #[test]
    fn a6_accepts_sorted_collects_and_reductions() {
        let sorted = "fn f(m: &HashMap<K, V>) { let mut v: Vec<_> = m.iter().map(|(k, _)| k).collect(); v.sort(); }";
        assert!(run(sorted, LIB, FileClass::Lib).is_empty(), "sort in stmt");
        let btree = "fn f(m: &HashMap<K, V>) { let v: BTreeMap<_, _> = m.iter().collect(); }";
        assert!(run(btree, LIB, FileClass::Lib).is_empty(), "btree collect");
        let sum = "fn f(m: &HashMap<K, f64>) -> f64 { m.values().copied().sum() }";
        assert!(run(sum, LIB, FileClass::Lib).is_empty(), "sum reduction");
    }

    #[test]
    fn a6_honors_order_marker_and_element_bindings() {
        let marked = "fn f(m: &HashSet<u32>) {\n    // order: dedup only; consumer re-sorts\n    for x in m.iter() { seen(x); }\n}";
        assert!(run(marked, LIB, FileClass::Lib).is_empty());
        let element = "struct S { per: Vec<HashSet<u32>> }\nfn f(s: &S, i: usize) { for x in &s.per[i] { push(x); } }";
        let f = run(element, LIB, FileClass::Lib);
        assert_eq!(f.iter().filter(|x| x.rule == Rule::A6).count(), 1, "{f:?}");
        let vec_ok = "fn f(per: &Vec<HashSet<u32>>) { for s in per { touch(s); } }";
        assert!(
            run(vec_ok, LIB, FileClass::Lib).is_empty(),
            "vec itself ordered"
        );
    }

    #[test]
    fn a7_flags_captured_mut_and_interior_mutability() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| { shared.push(&mut acc); }); }); }";
        let f = run(src, LIB, FileClass::Lib);
        assert_eq!(f.iter().filter(|x| x.rule == Rule::A7).count(), 1, "{f:?}");
        let cell =
            "fn f() { thread::scope(|s| { s.spawn(move || { let c = RefCell::new(0); }); }); }";
        let f = run(cell, LIB, FileClass::Lib);
        assert_eq!(f.iter().filter(|x| x.rule == Rule::A7).count(), 1, "{f:?}");
    }

    #[test]
    fn a7_blesses_local_mut_and_sync_comments() {
        let local = "fn f() { std::thread::scope(|s| { s.spawn(move || { let mut scratch = S::new(); fill(&mut scratch); }); }); }";
        assert!(
            run(local, LIB, FileClass::Lib).is_empty(),
            "closure-local &mut"
        );
        let synced = "fn f() { std::thread::scope(|s| { s.spawn(move || {\n        // sync: ledger is per-shard; joined before any read\n        fill(&mut ledger);\n    }); }); }";
        assert!(
            run(synced, LIB, FileClass::Lib).is_empty(),
            "sync-justified"
        );
        let outside = "fn f(ledgers: &mut [L]) { for l in ledgers.iter_mut() { std::thread::scope(|s| { s.spawn(move || work(l)); }); } }";
        assert!(
            run(outside, LIB, FileClass::Lib).is_empty(),
            "per-shard move-in"
        );
    }

    #[test]
    fn a8_flags_idish_narrowing_and_ctor_args() {
        let f = run("fn f(ni: usize) -> u32 { ni as u32 }", LIB, FileClass::Lib);
        assert_eq!(f.iter().filter(|x| x.rule == Rule::A8).count(), 1, "{f:?}");
        let ctor = "fn f(i: usize) -> SegId { SegId::new(i as u32, tag) }";
        let f = run(ctor, LIB, FileClass::Lib);
        assert_eq!(f.iter().filter(|x| x.rule == Rule::A8).count(), 1, "{f:?}");
        let grouped = "fn f(lo: usize, seg: usize) -> u32 { (lo + seg) as u32 }";
        let f = run(grouped, LIB, FileClass::Lib);
        assert_eq!(f.iter().filter(|x| x.rule == Rule::A8).count(), 1, "{f:?}");
    }

    #[test]
    fn a8_ignores_non_id_values_and_honors_cast_marker() {
        assert!(run(
            "fn f(size: usize) -> i64 { size as i64 }",
            LIB,
            FileClass::Lib
        )
        .iter()
        .all(|x| x.rule != Rule::A8));
        assert!(run(
            "fn f(cap: f64) -> u32 { cap.floor() as u32 }",
            LIB,
            FileClass::Lib
        )
        .iter()
        .all(|x| x.rule != Rule::A8));
        let marked = "fn f(ni: usize) -> u32 {\n    // cast: arena capacity is checked at build time (< 2^32 nets)\n    ni as u32\n}";
        assert!(run(marked, LIB, FileClass::Lib).is_empty());
        let tf = "fn f(ni: usize) -> Result<u32, E> { u32::try_from(ni).map_err(E::from) }";
        assert!(run(tf, LIB, FileClass::Lib).is_empty());
    }

    #[test]
    fn a8_flags_float_to_index_truncation() {
        let f = run(
            "fn f(idx: f64, max: usize) -> usize { idx.floor() as usize }",
            LIB,
            FileClass::Lib,
        );
        assert_eq!(f.iter().filter(|x| x.rule == Rule::A8).count(), 1, "{f:?}");
    }

    #[test]
    fn a9_flags_allocs_in_hot_loops_only() {
        let hot = "crates/solver/src/sdp.rs";
        let src = "fn f(xs: &[X]) { for x in xs { let v = Vec::new(); let c = x.clone(); } }";
        let f = run(src, hot, FileClass::Lib);
        assert_eq!(f.iter().filter(|x| x.rule == Rule::A9).count(), 2, "{f:?}");
        assert!(run(src, LIB, FileClass::Lib).is_empty(), "not a hot module");
        let outside = "fn f(xs: &[X]) { let mut v = Vec::new(); for x in xs { v.push(x); } }";
        assert!(run(outside, hot, FileClass::Lib).is_empty(), "hoisted");
    }

    #[test]
    fn a9_honors_alloc_marker() {
        let hot = "crates/cpla/src/flow.rs";
        let src = "fn f(xs: &[X]) { for x in xs {\n        // alloc: one result row per leaf, retained past the loop\n        out.push(x.to_vec());\n    } }";
        assert!(run(src, hot, FileClass::Lib).is_empty());
    }
}
