//! `wal-intent-lifecycle`: every path that logs a `PutIntent` must retire it.
//!
//! The PR 6.1 bug shape: `log_put_intent` fsyncs an intent, then some exit
//! path leaves the function without `log_confirm`/`log_put_abandoned` and
//! without handing the pending seq upward — after a crash the intent replays
//! state the caller never meant to commit, or pins a seq forever.
//!
//! The check is per-function over the token stream, path-approximated
//! textually (documented caveat: a retire that *textually* precedes an exit
//! is assumed to dominate it — sharper than the old line rules, still not a
//! CFG). For each `log_put_intent` call site, every exit that comes after
//! the intent's own statement must be *sanctioned*:
//!
//! * a retire call (`log_confirm`/`log_put_abandoned`, or constructing the
//!   `PutConfirmed`/`PutAbandoned` records directly) appears between the
//!   intent and the exit; or
//! * the exit expression mentions one of the intent call's argument
//!   identifiers — returning the pending seq upward transfers the
//!   obligation to the caller (the recovery contract); or
//! * the exit is `Err`-shaped (`?` always; `return Err(..)`; an `Err(..)`
//!   tail) — error exits deliberately keep the intent pending so recovery
//!   can replay or abandon it with full knowledge.
//!
//! `log_put_intents` is the group form: one call opens an obligation for
//! every id it lists. A single retire call cannot discharge those, so for a
//! group intent a retire only counts from inside a `for`/`while`/`loop`
//! body (textually again: the block that follows the keyword; a retire in
//! an iterator closure is not recognised). Handing the list upward and
//! `Err`-shaped exits are sanctioned as for one intent.
//!
//! The definitions of `log_put_intent` and `log_put_intents` themselves are
//! exempt, as is test code.

use crate::callgraph::Unit;
use crate::lexer::Kind;
use crate::{Diagnostic, RULE_WAL_INTENT_LIFECYCLE};

const INTENT: &str = "log_put_intent";
const GROUP_INTENT: &str = "log_put_intents";
const RETIRE: &[&str] = &[
    "log_confirm",
    "log_put_abandoned",
    "PutConfirmed",
    "PutAbandoned",
];

pub fn check(units: &[Unit]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for u in units {
        let lib = (u.rel.starts_with("crates/") && u.rel.contains("/src/"))
            || u.rel.starts_with("src/");
        if !lib {
            continue;
        }
        for f in &u.model.fns {
            if f.in_test || f.name == INTENT || f.name == GROUP_INTENT {
                continue;
            }
            check_fn(u, f, &mut diags);
        }
    }
    diags
}

fn check_fn(u: &Unit, f: &crate::model::FnItem, diags: &mut Vec<Diagnostic>) {
    let src = u.src.as_str();
    let sig = &u.sig;
    let txt = |p: usize| u.tokens[sig[p]].text(src);
    let line = |p: usize| u.tokens[sig[p]].line;

    // Sig positions inside the body, exclusive of the braces themselves.
    let start = sig.partition_point(|&k| k <= f.body.0);
    let end = sig.partition_point(|&k| k < f.body.1); // one past the last body token

    // Collect intent calls, retire mentions (and whether each sits in a
    // loop body), `return`s, and the tail expression (tokens after the last
    // body-depth-0 `;`).
    let mut intents: Vec<usize> = Vec::new();
    let mut retires: Vec<(usize, bool)> = Vec::new();
    let mut returns: Vec<usize> = Vec::new();
    // One entry per open block: whether a loop keyword introduced it.
    let mut blocks: Vec<bool> = Vec::new();
    let mut loop_pending = false;
    let mut last_top_semi: Option<usize> = None;
    for p in start..end {
        let t = txt(p);
        match u.tokens[sig[p]].kind {
            Kind::Punct => match t {
                "{" => blocks.push(std::mem::take(&mut loop_pending)),
                "}" => {
                    blocks.pop();
                }
                ";" if blocks.is_empty() => last_top_semi = Some(p),
                _ => {}
            },
            Kind::Ident => {
                let called = sig.get(p + 1).map(|&k| u.tokens[k].text(src)) == Some("(");
                if (t == INTENT || t == GROUP_INTENT) && called {
                    intents.push(p);
                } else if RETIRE.contains(&t) {
                    retires.push((p, blocks.contains(&true)));
                } else if t == "return" {
                    returns.push(p);
                } else if matches!(t, "for" | "while" | "loop") {
                    loop_pending = true;
                }
            }
            _ => {}
        }
    }
    if intents.is_empty() {
        return;
    }
    let tail_start = last_top_semi.map(|p| p + 1).unwrap_or(start);

    for &ip in &intents {
        // What can retire this intent: any retire call for a single one,
        // only a retire per loop iteration for a group.
        let group = txt(ip) == GROUP_INTENT;
        let retired_between = |from: usize, to: usize| {
            retires
                .iter()
                .any(|&(q, in_loop)| q > from && q < to && (in_loop || !group))
        };
        // The intent call's argument identifiers: returning any of them
        // upward counts as handing off the pending seq.
        let close = matching_paren(u, ip + 1, end);
        let args: Vec<&str> = (ip + 2..close)
            .filter(|&p| u.tokens[sig[p]].kind == Kind::Ident)
            .map(txt)
            .collect();
        // The intent's own statement ends at the first `;` after the call.
        let stmt_end = (close..end).find(|&p| txt(p) == ";").unwrap_or(close);

        // Exit 1: every `return` after the intent's statement.
        for &rp in returns.iter().filter(|&&rp| rp > stmt_end) {
            if retired_between(ip, rp) {
                continue;
            }
            let expr_end = (rp..end).find(|&p| txt(p) == ";").unwrap_or(end);
            if sanctioned_expr(u, rp + 1, expr_end, &args) {
                continue;
            }
            diags.push(flag(u, f, txt(ip), line(ip), line(rp)));
        }

        // Exit 2: falling off the end of the body.
        if retired_between(ip, end) {
            continue;
        }
        if tail_start > stmt_end && sanctioned_expr(u, tail_start, end, &args) {
            continue;
        }
        let end_line = u.tokens[f.body.1.min(u.tokens.len() - 1)].line;
        diags.push(flag(u, f, txt(ip), line(ip), end_line));
    }
}

/// An exit expression is sanctioned when it is `Err`-shaped or mentions one
/// of the intent call's argument identifiers.
fn sanctioned_expr(u: &Unit, from: usize, to: usize, args: &[&str]) -> bool {
    let src = u.src.as_str();
    (from..to.min(u.sig.len())).any(|p| {
        let t = &u.tokens[u.sig[p]];
        t.kind == Kind::Ident && {
            let s = t.text(src);
            s == "Err" || args.contains(&s)
        }
    })
}

/// Sig position of the `)` matching the `(` at sig position `open`
/// (bounded by `end`).
fn matching_paren(u: &Unit, open: usize, end: usize) -> usize {
    let src = u.src.as_str();
    let mut depth = 0i32;
    for p in open..end.min(u.sig.len()) {
        match u.tokens[u.sig[p]].text(src) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return p;
                }
            }
            _ => {}
        }
    }
    end.min(u.sig.len().saturating_sub(1))
}

fn flag(
    u: &Unit,
    f: &crate::model::FnItem,
    intent: &str,
    intent_line: u32,
    exit_line: u32,
) -> Diagnostic {
    let (retire, handoff) = if intent == GROUP_INTENT {
        ("a `log_confirm`/`log_put_abandoned` per listed id", "the pending seqs")
    } else {
        ("`log_confirm`/`log_put_abandoned`", "the pending seq")
    };
    Diagnostic {
        file: u.rel.clone(),
        line: intent_line as usize,
        rule: RULE_WAL_INTENT_LIFECYCLE,
        message: format!(
            "`{intent}` at {}:{} can reach the exit of `{}` at {}:{} \
             without {retire} and without returning {handoff}; a crash \
             there leaks an unretired intent",
            u.rel, intent_line, f.name, u.rel, exit_line
        ),
    }
}
