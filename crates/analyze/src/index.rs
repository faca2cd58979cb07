//! Per-line view derived from the token stream.
//!
//! The original textual lints were line-oriented, and most rule conditions
//! ("a `SAFETY` comment in the contiguous comment block above", "waiver on
//! the same or previous line") are genuinely properties of *lines*. The
//! index reconstructs that view from the lexer's tokens, which removes the
//! whole `mask_code` false-positive class: string interiors (including
//! multi-line and raw strings), char literals and nested block comments can
//! never leak into the masked code text, and doc comments are separated
//! from plain comments so a waiver can only be registered by a real
//! `// lint:…-ok` comment.

use crate::lexer::{Tok, TokKind};

/// Line-indexed view of one source file (all vectors are `n_lines` long,
/// index 0 is line 1).
pub struct FileIndex {
    /// Code text per line: token texts placed at their true columns,
    /// literal interiors blanked (a `"` marks where a string was), comments
    /// stripped entirely.
    pub masked: Vec<String>,
    /// All comment text per line (doc and plain), with delimiters.
    pub comments: Vec<String>,
    /// Only plain (non-doc) comment text per line — the only place waivers
    /// are recognized.
    pub plain_comments: Vec<String>,
    /// True for lines inside a `#[cfg(test)]` item (token-level brace
    /// matching, so a test module in the middle of a file does not exempt
    /// the code after it).
    pub is_test: Vec<bool>,
}

impl FileIndex {
    /// Builds the index for a file with `n_lines` physical lines.
    pub fn build(tokens: &[Tok], n_lines: usize) -> FileIndex {
        let mut masked = vec![String::new(); n_lines];
        let mut comments = vec![String::new(); n_lines];
        let mut plain_comments = vec![String::new(); n_lines];

        for t in tokens {
            let li = (t.line as usize).saturating_sub(1);
            if li >= n_lines {
                continue;
            }
            match &t.kind {
                TokKind::Comment { doc, .. } => {
                    // Distribute multi-line comment text across its lines.
                    for (k, part) in t.text.split('\n').enumerate() {
                        let l = li + k;
                        if l >= n_lines {
                            break;
                        }
                        push_part(&mut comments[l], part);
                        if !doc {
                            push_part(&mut plain_comments[l], part);
                        }
                    }
                }
                TokKind::Str => {
                    // A quote at the start column marks the literal; the
                    // interior is blanked so rules can never match into it.
                    place(&mut masked[li], t.col, "\"");
                }
                TokKind::Char => {
                    place(&mut masked[li], t.col, "'");
                }
                _ => {
                    // Single-line tokens (idents, puncts, numbers,
                    // lifetimes) are placed at their true column.
                    place(&mut masked[li], t.col, &t.text);
                }
            }
        }

        let is_test = test_lines(tokens, n_lines);
        FileIndex {
            masked,
            comments,
            plain_comments,
            is_test,
        }
    }

    /// True if the line (0-based) is blank, comment-only, or an attribute —
    /// the lines R1's upward walk steps through.
    pub fn is_comment_or_attr(&self, li: usize) -> bool {
        let code = self.masked[li].trim_start();
        code.is_empty() || code.starts_with("#[") || code.starts_with("#!")
    }

    /// True if a waiver comment with the given tag (e.g. `lint:relaxed-ok`)
    /// covers the 0-based line: a *plain* comment on the same or previous
    /// line.
    pub fn waived(&self, li: usize, tag: &str) -> bool {
        self.plain_comments[li].contains(tag)
            || (li > 0 && self.plain_comments[li - 1].contains(tag))
    }
}

/// Appends comment text to a line's comment accumulator.
fn push_part(acc: &mut String, part: &str) {
    if !acc.is_empty() {
        acc.push(' ');
    }
    acc.push_str(part);
}

/// Writes `text` into `line` starting at 1-based character column `col`,
/// padding with spaces. Multi-line token texts only place their first line
/// (the rest of a multi-line literal is blanked by construction).
fn place(line: &mut String, col: u32, text: &str) {
    let col = (col as usize).saturating_sub(1);
    let cur: Vec<char> = line.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(col + text.len());
    out.extend_from_slice(&cur);
    while out.len() < col {
        out.push(' ');
    }
    for c in text.chars().take_while(|&c| c != '\n') {
        if out.len() <= col + 1000 {
            out.push(c);
        }
    }
    *line = out.into_iter().collect();
}

/// Marks lines covered by `#[cfg(test)]` items. After the attribute
/// (skipping any further attributes), the item extends to the matching `}`
/// of its first brace, or to the `;` of a braceless item.
fn test_lines(tokens: &[Tok], n_lines: usize) -> Vec<bool> {
    let mut flags = vec![false; n_lines];
    let code: Vec<(usize, &Tok)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .collect();
    let mut i = 0;
    while i + 6 < code.len() {
        let w = &code[i..i + 7];
        let is_cfg_test = w[0].1.is_punct("#")
            && w[1].1.is_punct("[")
            && w[2].1.is_ident("cfg")
            && w[3].1.is_punct("(")
            && w[4].1.is_ident("test")
            && w[5].1.is_punct(")")
            && w[6].1.is_punct("]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = w[0].1.line as usize;
        // Skip any further attributes, then find the item's extent.
        let mut j = i + 7;
        while j + 1 < code.len() && code[j].1.is_punct("#") && code[j + 1].1.is_punct("[") {
            // Skip to the matching `]`.
            let mut depth = 0usize;
            j += 1;
            while j < code.len() {
                if code[j].1.is_punct("[") {
                    depth += 1;
                } else if code[j].1.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Scan to the first `{` (brace-matched item) or `;` (braceless).
        let mut end_line = n_lines; // unterminated: to EOF
        let mut k = j;
        while k < code.len() {
            if code[k].1.is_punct(";") {
                end_line = code[k].1.line as usize;
                break;
            }
            if code[k].1.is_punct("{") {
                let mut depth = 0usize;
                while k < code.len() {
                    if code[k].1.is_punct("{") {
                        depth += 1;
                    } else if code[k].1.is_punct("}") {
                        depth -= 1;
                        if depth == 0 {
                            end_line = code[k].1.line as usize;
                            break;
                        }
                    }
                    k += 1;
                }
                if k == code.len() {
                    end_line = n_lines;
                }
                break;
            }
            k += 1;
        }
        for l in start_line..=end_line.min(n_lines) {
            flags[l - 1] = true;
        }
        i += 7;
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn index(src: &str) -> FileIndex {
        FileIndex::build(&lex(src), src.lines().count().max(1))
    }

    #[test]
    fn masking_blanks_strings_and_strips_comments() {
        let idx = index("let s = \"g0.apply(x)\"; // lint:single-rhs-ok note\ncall();\n");
        assert!(!idx.masked[0].contains("apply"));
        assert!(idx.masked[0].contains('"'));
        assert!(!idx.masked[0].contains("lint:"));
        assert!(idx.plain_comments[0].contains("lint:single-rhs-ok"));
        assert_eq!(idx.masked[1].trim(), "call();");
    }

    #[test]
    fn multiline_string_interior_is_blank() {
        let idx = index("let s = \"first\n.send(1, 2, x)\nlast\";\nreal.send(1, 2, x);\n");
        assert!(!idx.masked[1].contains(".send("));
        assert!(idx.masked[3].contains(".send("));
    }

    #[test]
    fn doc_comments_do_not_register_waivers() {
        let idx = index("//! doc mentioning lint:unwrap-ok\n// real lint:unwrap-ok\n");
        assert!(!idx.plain_comments[0].contains("lint:unwrap-ok"));
        assert!(idx.comments[0].contains("lint:unwrap-ok"));
        assert!(idx.plain_comments[1].contains("lint:unwrap-ok"));
    }

    #[test]
    fn cfg_test_module_is_bounded() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn b() {}\n";
        let idx = index(src);
        assert!(!idx.is_test[0]);
        assert!(idx.is_test[1]);
        assert!(idx.is_test[3]);
        assert!(idx.is_test[4]);
        assert!(!idx.is_test[5], "code after the test module is not test");
    }

    #[test]
    fn cfg_test_with_extra_attr_and_braceless_item() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod helpers {\n fn x() {}\n}\n#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let idx = index(src);
        assert!(idx.is_test[0] && idx.is_test[2] && idx.is_test[4]);
        assert!(idx.is_test[5] && idx.is_test[6]);
        assert!(!idx.is_test[7]);
    }

    #[test]
    fn unterminated_cfg_test_runs_to_eof() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n";
        let idx = index(src);
        assert!(idx.is_test[3]);
    }

    #[test]
    fn comment_or_attr_walk_lines() {
        let idx = index("// c\n#[derive(Debug)]\n\nstruct X;\n");
        assert!(idx.is_comment_or_attr(0));
        assert!(idx.is_comment_or_attr(1));
        assert!(idx.is_comment_or_attr(2));
        assert!(!idx.is_comment_or_attr(3));
    }

    #[test]
    fn waiver_same_or_previous_line() {
        let idx = index("// lint:relaxed-ok justified\nx.load(Relaxed);\ny.load(Relaxed);\n");
        assert!(idx.waived(1, "lint:relaxed-ok"));
        assert!(!idx.waived(2, "lint:relaxed-ok"));
    }
}
