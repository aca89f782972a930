//! The determinism/soundness rules. Each rule walks the preprocessed
//! [`SourceFile`] and emits diagnostics; the
//! driver filters those covered by a reasoned `lint:allow` directive.

use crate::source::{SourceFile, TokKind, Token};
use crate::{Diagnostic, FileContext};

/// Crates whose certified outputs must be bit-reproducible. Iteration order
/// and float comparison discipline are enforced here, not workspace-wide.
pub const DET_CRATES: [&str; 2] = ["milp", "core"];

/// All rule identifiers, for validating `lint:allow(<rule>)` directives.
pub const RULES: [&str; 8] = [
    "hash-iter",
    "float-cmp",
    "wall-clock",
    "platform-fp",
    "forbid-unsafe",
    "snap-audit",
    "cert-audit",
    "allow-syntax",
];

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// Methods that expose hash-map iteration order.
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Float intrinsics whose results may differ across platforms/libm versions
/// (fused ops and transcendentals). `sqrt`, `powi`, `abs`, comparisons, and
/// arithmetic are IEEE-754-exact and stay allowed.
const PLATFORM_FP: [&str; 22] = [
    "mul_add",
    "to_degrees",
    "to_radians",
    "sin",
    "cos",
    "tan",
    "asin",
    "acos",
    "atan",
    "atan2",
    "sinh",
    "cosh",
    "tanh",
    "exp",
    "exp2",
    "exp_m1",
    "ln",
    "ln_1p",
    "log",
    "log2",
    "log10",
    "powf",
];

pub fn run_all(ctx: &FileContext, path: &str, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let det = DET_CRATES.contains(&ctx.crate_name.as_str());
    check_allow_syntax(path, file, out);
    if det && !ctx.is_test_file {
        check_hash_iter(path, file, out);
        check_float_cmp(path, file, out);
    }
    check_wall_clock(ctx, path, file, out);
    if ctx.crate_name == "milp" && !ctx.is_test_file {
        check_platform_fp(path, file, out);
    }
    if ctx.is_crate_root {
        check_forbid_unsafe(path, file, out);
    }
    if ctx.crate_name == "core" && ctx.file_name == "query.rs" && !ctx.is_test_file {
        check_snap_audit(path, file, out);
        check_cert_audit(path, file, out);
    }
}

fn diag(path: &str, line: usize, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        path: path.to_string(),
        line,
        rule,
        message,
    }
}

/// `allow-syntax`: a bare `lint:allow(rule)` without a reason, or an allow
/// naming an unknown rule, is itself a violation — the escape hatch must
/// leave an audit trail.
fn check_allow_syntax(path: &str, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for a in &file.allows {
        if !RULES.contains(&a.rule.as_str()) {
            out.push(diag(
                path,
                a.line,
                "allow-syntax",
                format!("lint:allow names unknown rule `{}`", a.rule),
            ));
        } else if !a.has_reason {
            out.push(diag(
                path,
                a.line,
                "allow-syntax",
                format!(
                    "lint:allow({}) has no reason; write `lint:allow({}): <why>`",
                    a.rule, a.rule
                ),
            ));
        }
    }
}

/// `hash-iter`: iterating a HashMap/HashSet (or collecting into one and then
/// exposing it) in a deterministic crate. Order-insensitive use
/// (`contains`, `insert`, `get`, `remove`) is fine.
fn check_hash_iter(path: &str, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    let mut hash_idents: Vec<String> = Vec::new();

    let is_hash_type =
        |t: &Token| t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str());
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str()).unwrap_or("");

    // Pass 1: collect identifiers declared with a hash type:
    //   `name : [& mut] HashSet <`   (bindings, fields, params)
    //   `let [mut] name = HashSet :: new (` / `with_capacity (`
    for i in 0..toks.len() {
        if is_hash_type(&toks[i]) {
            // Walk back over `: & mut` to the declared name.
            let mut j = i;
            while j > 0 && matches!(text(j - 1), "&" | "mut") {
                j -= 1;
            }
            if j > 1 && text(j - 1) == ":" && toks[j - 2].kind == TokKind::Ident {
                hash_idents.push(toks[j - 2].text.clone());
            }
            if i + 2 < toks.len()
                && text(i + 1) == "::"
                && matches!(text(i + 2), "new" | "with_capacity" | "default" | "from")
            {
                let mut j = i;
                if text(j.wrapping_sub(1)) == "=" {
                    j -= 1;
                    if toks
                        .get(j.wrapping_sub(1))
                        .is_some_and(|t| t.kind == TokKind::Ident)
                    {
                        let name = j - 1;
                        if text(name.wrapping_sub(1)) == "mut"
                            || text(name.wrapping_sub(1)) == "let"
                            || text(name.wrapping_sub(2)) == "let"
                        {
                            hash_idents.push(toks[name].text.clone());
                        }
                    }
                }
            }
        }
    }
    hash_idents.sort_unstable();
    hash_idents.dedup();
    // `use std::collections::HashMap;` declares nothing iterable.
    hash_idents.retain(|n| !HASH_TYPES.contains(&n.as_str()));

    let mut fire = |line: usize, what: &str| {
        if !file.in_test_region(line) {
            out.push(diag(
                path,
                line,
                "hash-iter",
                format!(
                    "{what} — hash iteration order is nondeterministic; use a sorted Vec, \
                     BTreeMap/BTreeSet, or sort before iterating"
                ),
            ));
        }
    };

    for i in 0..toks.len() {
        let t = &toks[i];
        // (a) `for pat in <expr>` where the expression mentions a hash ident
        //     or hash type before the block opens.
        if t.kind == TokKind::Ident && t.text == "for" && text(i + 1) != "<" {
            let mut j = i + 1;
            let mut depth = 0usize;
            while let Some(tok) = toks.get(j) {
                match tok.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "{" if depth == 0 => break,
                    "in" if depth == 0 && tok.kind == TokKind::Ident => {
                        // Scan the iterated expression up to `{`.
                        let mut k = j + 1;
                        let mut d2 = 0usize;
                        while let Some(e) = toks.get(k) {
                            match e.text.as_str() {
                                "(" | "[" => d2 += 1,
                                ")" | "]" => d2 = d2.saturating_sub(1),
                                "{" if d2 == 0 => break,
                                _ => {}
                            }
                            if e.kind == TokKind::Ident
                                && (hash_idents.contains(&e.text)
                                    || HASH_TYPES.contains(&e.text.as_str()))
                            {
                                fire(e.line, &format!("`for` loop over `{}`", e.text));
                                break;
                            }
                            k += 1;
                        }
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // (b) tracked_ident . iter() / keys() / ...
        if t.kind == TokKind::Ident
            && hash_idents.contains(&t.text)
            && text(i + 1) == "."
            && toks.get(i + 2).is_some_and(|m| {
                m.kind == TokKind::Ident && ITER_METHODS.contains(&m.text.as_str())
            })
            && text(i + 3) == "("
        {
            fire(
                t.line,
                &format!("`{}.{}()` iterates a hash collection", t.text, text(i + 2)),
            );
        }
        // (c) collect :: < HashSet / HashMap
        if t.kind == TokKind::Ident
            && t.text == "collect"
            && text(i + 1) == "::"
            && text(i + 2) == "<"
            && toks.get(i + 3).is_some_and(is_hash_type)
        {
            fire(t.line, &format!("`collect::<{}<..>>()`", text(i + 3)));
        }
        // (d) `let name : HashSet < .. > = .. collect ( )` — typed binding
        //     collected into; flag at the collect site.
        if t.kind == TokKind::Ident && t.text == "let" {
            if let Some(colon) = (i + 1..(i + 4).min(toks.len())).find(|&k| text(k) == ":") {
                if toks.get(colon + 1).is_some_and(is_hash_type) {
                    let mut k = colon + 1;
                    while k < toks.len() && text(k) != ";" && text(k) != "{" {
                        if toks[k].kind == TokKind::Ident && toks[k].text == "collect" {
                            fire(toks[k].line, "`.collect()` into a hash-typed binding");
                            break;
                        }
                        k += 1;
                    }
                }
            }
        }
        // (e) `-> HashSet<..>` return type: the caller inherits an iterable
        //     nondeterministic collection.
        if t.kind == TokKind::Punct && t.text == "->" {
            let mut k = i + 1;
            while k < toks.len() && !matches!(text(k), "{" | ";" | "where") {
                if toks.get(k).is_some_and(is_hash_type) {
                    fire(toks[k].line, &format!("function returns `{}<..>`", text(k)));
                    break;
                }
                k += 1;
            }
        }
    }
}

/// `float-cmp`: `partial_cmp` in sort/selection positions (NaN silently
/// collapses the order — use `total_cmp`), and `==`/`!=` against nonzero
/// float literals (computed floats differ in the last ulp across paths;
/// exact-zero tests are deterministic sparsity checks and stay allowed).
fn check_float_cmp(path: &str, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if file.in_test_region(t.line) {
            continue;
        }
        if t.kind == TokKind::Ident && t.text == "partial_cmp" {
            out.push(diag(
                path,
                t.line,
                "float-cmp",
                "`partial_cmp` can return None on NaN and silently reorder; use `total_cmp`"
                    .to_string(),
            ));
        }
        if t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=") {
            for side in [i.wrapping_sub(1), i + 1, i + 2] {
                let Some(n) = toks.get(side) else { continue };
                if n.kind != TokKind::Num {
                    continue;
                }
                // Only float literals; `- 1.0` puts the literal at i+2.
                if side == i + 2 && toks.get(i + 1).map(|s| s.text.as_str()) != Some("-") {
                    continue;
                }
                if is_nonzero_float_literal(&n.text) {
                    out.push(diag(
                        path,
                        t.line,
                        "float-cmp",
                        format!(
                            "`{} {}` compares a computed float for exact equality; \
                             compare against a tolerance or snap first",
                            t.text, n.text
                        ),
                    ));
                    break;
                }
            }
        }
    }
}

fn is_nonzero_float_literal(text: &str) -> bool {
    let t = text
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches('_');
    let is_float = t.contains('.')
        || t.contains('e')
        || t.contains('E')
        || text.ends_with("f64")
        || text.ends_with("f32");
    if !is_float {
        return false;
    }
    t.parse::<f64>().is_ok_and(|v| v != 0.0)
}

/// `wall-clock`: `Instant::now`, `SystemTime`, `.elapsed()`. In `milp` this
/// fires everywhere (tests included — the solver must be a pure function of
/// its inputs plus the caller's stop signal); in `core` it fires outside
/// tests and is suppressed only by a reasoned `lint:allow(wall-clock)` at
/// the audited deadline/telemetry sites.
fn check_wall_clock(ctx: &FileContext, path: &str, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let scope_all = ctx.crate_name == "milp";
    let scope_nontest = ctx.crate_name == "core";
    if !scope_all && !scope_nontest {
        return;
    }
    let toks = &file.tokens;
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str()).unwrap_or("");
    for (i, t) in toks.iter().enumerate() {
        if !scope_all && (file.in_test_region(t.line) || ctx.is_test_file) {
            continue;
        }
        // An import is not a clock read; only uses of the type are.
        let on_use_line = file
            .stripped
            .get(t.line.saturating_sub(1))
            .is_some_and(|l| l.trim_start().starts_with("use "));
        let hit = if t.kind == TokKind::Ident && t.text == "Instant" {
            (text(i + 1) == "::" && text(i + 2) == "now").then(|| "`Instant::now()`".to_string())
        } else if t.kind == TokKind::Ident && t.text == "SystemTime" && !on_use_line {
            Some("`SystemTime`".to_string())
        } else if t.kind == TokKind::Punct
            && t.text == "."
            && text(i + 1) == "elapsed"
            && text(i + 2) == "("
        {
            Some("`.elapsed()`".to_string())
        } else {
            None
        };
        if let Some(what) = hit {
            let advice = if scope_all {
                "the solver must never read the clock; accept a `StopWhen` from the caller"
            } else {
                "route wall-clock reads through `itne_core::deadline` and annotate the site"
            };
            out.push(diag(
                path,
                t.line,
                "wall-clock",
                format!("{what} — {advice}"),
            ));
        }
    }
}

/// `platform-fp`: fused/transcendental float intrinsics in the LP kernel.
fn check_platform_fp(path: &str, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str()).unwrap_or("");
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Punct
            && t.text == "."
            && toks
                .get(i + 1)
                .is_some_and(|m| m.kind == TokKind::Ident && PLATFORM_FP.contains(&m.text.as_str()))
            && text(i + 2) == "("
        {
            out.push(diag(
                path,
                toks[i + 1].line,
                "platform-fp",
                format!(
                    "`.{}()` may round differently across platforms/libm versions; \
                     the LP kernel must use only IEEE-exact operations",
                    text(i + 1)
                ),
            ));
        }
    }
}

/// `forbid-unsafe`: every crate root must carry `#![forbid(unsafe_code)]`.
fn check_forbid_unsafe(path: &str, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let found = (0..toks.len()).any(|i| {
        text(i) == "#"
            && text(i + 1) == "!"
            && text(i + 2) == "["
            && text(i + 3) == "forbid"
            && text(i + 4) == "("
            && (i + 5..i + 12).any(|k| text(k) == "unsafe_code")
    });
    if !found {
        out.push(diag(
            path,
            1,
            "forbid-unsafe",
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
}

/// `snap-audit`: `query.rs` must define `snap_outward`, and every
/// non-test use of `SOUND_SLACK` (slack applied to a reported bound) must
/// pass through `snap_outward` on the same line — slack without outward
/// snapping silently reintroduces cross-path bit drift.
fn check_snap_audit(path: &str, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let has_fn = (0..toks.len()).any(|i| text(i) == "fn" && text(i + 1) == "snap_outward");
    if !has_fn {
        out.push(diag(
            path,
            1,
            "snap-audit",
            "query.rs must define `snap_outward` — reported bounds are snapped \
             outward onto the dyadic grid for bit-reproducibility"
                .to_string(),
        ));
        return;
    }
    for (idx, line) in file.stripped.iter().enumerate() {
        let lineno = idx + 1;
        if file.in_test_region(lineno) {
            continue;
        }
        if !line.contains("SOUND_SLACK") {
            continue;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("const") || trimmed.starts_with("pub const") {
            continue;
        }
        if !line.contains("snap_outward") {
            out.push(diag(
                path,
                lineno,
                "snap-audit",
                "`SOUND_SLACK` applied without `snap_outward` on the same expression; \
                 unsnapped slack reintroduces cross-path bit drift"
                    .to_string(),
            ));
        }
    }
}

/// `cert-audit`: `query.rs` must define `certified_bound` — the single gate
/// that turns a raw `Solution.objective` into a reported bound (outward pad,
/// dyadic snap, exact-rational certificate check) — and no non-test line may
/// read the `.objective` field outside that gate. Accessors like
/// `.objective_sense()` describe the *model* and are exempt; only the exact
/// field access on a solution is audited.
fn check_cert_audit(path: &str, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let has_fn = (0..toks.len()).any(|i| text(i) == "fn" && text(i + 1) == "certified_bound");
    if !has_fn {
        out.push(diag(
            path,
            1,
            "cert-audit",
            "query.rs must define `certified_bound` — the audited gate that pads, \
             snaps, and certificate-checks every solver objective before it is \
             reported"
                .to_string(),
        ));
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct || t.text != "." || text(i + 1) != "objective" {
            continue;
        }
        let next = toks.get(i + 1).expect("matched above");
        if file.in_test_region(next.line) {
            continue;
        }
        let line = file
            .stripped
            .get(next.line.saturating_sub(1))
            .map(|l| l.as_str())
            .unwrap_or("");
        if !line.contains("certified_bound") && !line.contains("snap_outward") {
            out.push(diag(
                path,
                next.line,
                "cert-audit",
                "`Solution.objective` read outside the `certified_bound` gate; raw \
                 objectives must be padded, snapped, and certificate-checked before \
                 becoming reported bounds"
                    .to_string(),
            ));
        }
    }
}
