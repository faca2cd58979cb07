//! Which lines of a file are test code.
//!
//! The rules exempt `#[cfg(test)]` items. The extent of each item is found
//! by brace matching on the token stream, so a test module in the middle of
//! a file does not exempt the code after it.

use crate::lexer::Tok;

/// Marks lines covered by `#[cfg(test)]` items. After the attribute
/// (skipping any further attributes), the item extends to the matching `}`
/// of its first brace, or to the `;` of a braceless item.
pub fn test_lines(tokens: &[Tok], n_lines: usize) -> Vec<bool> {
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

    fn is_test(src: &str) -> Vec<bool> {
        test_lines(&lex(src), src.lines().count().max(1))
    }

    #[test]
    fn cfg_test_module_is_bounded() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn b() {}\n";
        let t = is_test(src);
        assert!(!t[0]);
        assert!(t[1]);
        assert!(t[3]);
        assert!(t[4]);
        assert!(!t[5], "code after the test module is not test");
    }

    #[test]
    fn cfg_test_with_extra_attr_and_braceless_item() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod helpers {\n fn x() {}\n}\n#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let t = is_test(src);
        assert!(t[0] && t[2] && t[4]);
        assert!(t[5] && t[6]);
        assert!(!t[7]);
    }

    #[test]
    fn unterminated_cfg_test_runs_to_eof() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n";
        assert!(is_test(src)[3]);
    }
}
