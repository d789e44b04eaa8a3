//! SQL front end: lexer, AST, and a recursive-descent parser for the
//! query subset the evaluation exercises — arithmetic expressions over
//! DECIMAL columns, aggregates, filters, equi-joins, grouping, ordering,
//! and limits (Queries 1–5 of the paper, TPC-H Q1, and the Table I
//! workloads).

use core::fmt;

/// Binary arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

/// Aggregate functions (§III-B3 lists their result-type rules).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
    /// `COUNT`
    Count,
    /// `COUNT(DISTINCT …)`
    CountDistinct,
}

/// Comparison operators in predicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A parsed scalar expression.
#[derive(Clone, Debug, PartialEq)]
pub enum SqlExpr {
    /// Numeric literal (kept textual; typed during planning).
    Num(String),
    /// String literal.
    Str(String),
    /// Possibly-qualified identifier (`c1` or `l.l_tax`).
    Ident(Vec<String>),
    /// Unary minus.
    Neg(Box<SqlExpr>),
    /// Binary arithmetic.
    Bin(BinOp, Box<SqlExpr>, Box<SqlExpr>),
    /// Aggregate call.
    Agg(AggFunc, Box<SqlExpr>),
    /// `COUNT(*)`.
    CountStar,
    /// `CASE WHEN p THEN e … [ELSE e] END`.
    Case {
        /// (condition, result) branches in order.
        branches: Vec<(Pred, SqlExpr)>,
        /// `ELSE` result (NULL-free subset: defaults to 0 when omitted).
        else_: Option<Box<SqlExpr>>,
    },
    /// `CAST(e AS DECIMAL(p, s))`.
    Cast(Box<SqlExpr>, u32, u32),
}

/// A predicate.
#[derive(Clone, Debug, PartialEq)]
pub enum Pred {
    /// Comparison.
    Cmp(CmpOp, SqlExpr, SqlExpr),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// `x BETWEEN lo AND hi`.
    Between(SqlExpr, SqlExpr, SqlExpr),
    /// `x LIKE 'pattern'` (`%` wildcards at the ends only).
    Like(SqlExpr, String),
}

/// An inner equi-join clause.
#[derive(Clone, Debug, PartialEq)]
pub struct Join {
    /// Joined table.
    pub table: String,
    /// Optional alias.
    pub alias: Option<String>,
    /// Equality pairs `(left ident, right ident)`.
    pub on: Vec<(SqlExpr, SqlExpr)>,
}

/// A parsed `SELECT`.
#[derive(Clone, Debug, PartialEq)]
pub struct Select {
    /// Projected items with optional aliases.
    pub items: Vec<(SqlExpr, Option<String>)>,
    /// Base table.
    pub from: String,
    /// Base-table alias.
    pub from_alias: Option<String>,
    /// Inner joins.
    pub joins: Vec<Join>,
    /// `WHERE`.
    pub where_: Option<Pred>,
    /// `GROUP BY` identifiers.
    pub group_by: Vec<SqlExpr>,
    /// `HAVING` predicate (over output columns).
    pub having: Option<Pred>,
    /// `ORDER BY` (expression, descending?).
    pub order_by: Vec<(SqlExpr, bool)>,
    /// `LIMIT`.
    pub limit: Option<u64>,
}

/// A parse failure with position context.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Message.
    pub msg: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Num(String),
    Str(String),
    Sym(char),
    // two-char symbols
    Le,
    Ge,
    Ne,
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let b = src.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        if c.is_ascii_alphabetic() || c == '_' {
            let mut j = i + 1;
            while j < b.len() && ((b[j] as char).is_ascii_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            out.push((Tok::Ident(src[i..j].to_string()), start));
            i = j;
        } else if c.is_ascii_digit() || (c == '.' && i + 1 < b.len() && (b[i + 1] as char).is_ascii_digit()) {
            let mut j = i;
            let mut seen_dot = false;
            while j < b.len() {
                let cj = b[j] as char;
                if cj.is_ascii_digit() {
                    j += 1;
                } else if cj == '.' && !seen_dot {
                    seen_dot = true;
                    j += 1;
                } else {
                    break;
                }
            }
            out.push((Tok::Num(src[i..j].to_string()), start));
            i = j;
        } else if c == '\'' {
            let mut j = i + 1;
            while j < b.len() && b[j] != b'\'' {
                j += 1;
            }
            if j >= b.len() {
                return Err(ParseError { msg: "unterminated string".into(), at: start });
            }
            out.push((Tok::Str(src[i + 1..j].to_string()), start));
            i = j + 1;
        } else if c == '<' && i + 1 < b.len() && b[i + 1] == b'=' {
            out.push((Tok::Le, start));
            i += 2;
        } else if c == '>' && i + 1 < b.len() && b[i + 1] == b'=' {
            out.push((Tok::Ge, start));
            i += 2;
        } else if (c == '<' && i + 1 < b.len() && b[i + 1] == b'>')
            || (c == '!' && i + 1 < b.len() && b[i + 1] == b'=')
        {
            out.push((Tok::Ne, start));
            i += 2;
        } else if "+-*/%(),.;=<>".contains(c) {
            out.push((Tok::Sym(c), start));
            i += 1;
        } else {
            return Err(ParseError { msg: format!("unexpected character {c:?}"), at: start });
        }
    }
    Ok(out)
}

/// Deepest expression/predicate tree the parser builds. Every pass after
/// it (plan, n-ary rewrite, constant folding, codegen) recurses over the
/// tree, so this bound is what keeps a hostile statement from overflowing
/// a worker's stack.
pub const MAX_EXPR_DEPTH: usize = 256;

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    /// Input length in bytes: the position reported at end of input.
    end: usize,
    /// Tree depth at the current token: one level per enclosing `(`,
    /// unary sign, NOT, CASE, CAST or aggregate call, plus one per
    /// operator appended to an enclosing operator chain.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn at(&self) -> usize {
        self.toks.get(self.pos).map_or(self.end, |(_, a)| *a)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { msg: msg.into(), at: self.at() })
    }

    /// Enters one tree level for the token just consumed; past
    /// [`MAX_EXPR_DEPTH`] that token is the error position.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            let at = self.toks[self.pos - 1].1;
            return Err(ParseError {
                msg: format!("expression nested deeper than {MAX_EXPR_DEPTH} levels"),
                at,
            });
        }
        Ok(())
    }

    /// Runs `parse` one tree level below the token just consumed.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.descend()?;
        let r = parse(self);
        self.depth -= 1;
        r
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword {kw}"))
        }
    }

    fn eat_sym(&mut self, c: char) -> bool {
        if self.peek() == Some(&Tok::Sym(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat_sym(c) {
            Ok(())
        } else {
            self.err(format!("expected {c:?}"))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s.to_lowercase()),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                self.err("expected identifier")
            }
        }
    }

    const KEYWORDS: &'static [&'static str] = &[
        "select", "from", "where", "group", "order", "by", "limit", "as", "and",
        "or", "not", "between", "like", "join", "on", "inner", "asc", "desc",
        "case", "when", "then", "else", "end", "cast", "decimal", "distinct",
        "having",
    ];

    fn is_kw(s: &str) -> bool {
        Self::KEYWORDS.iter().any(|k| k.eq_ignore_ascii_case(s))
    }

    // ---- expressions ----

    /// A left-deep `+`/`-` chain: each appended operator is one level
    /// deeper, until the chain ends.
    fn expr(&mut self) -> Result<SqlExpr, ParseError> {
        let base = self.depth;
        let mut lhs = self.term()?;
        loop {
            let op = if self.eat_sym('+') {
                BinOp::Add
            } else if self.eat_sym('-') {
                BinOp::Sub
            } else {
                self.depth = base;
                return Ok(lhs);
            };
            self.descend()?;
            lhs = SqlExpr::Bin(op, Box::new(lhs), Box::new(self.term()?));
        }
    }

    fn term(&mut self) -> Result<SqlExpr, ParseError> {
        let base = self.depth;
        let mut lhs = self.factor()?;
        loop {
            let op = if self.eat_sym('*') {
                BinOp::Mul
            } else if self.eat_sym('/') {
                BinOp::Div
            } else if self.eat_sym('%') {
                BinOp::Mod
            } else {
                self.depth = base;
                return Ok(lhs);
            };
            self.descend()?;
            lhs = SqlExpr::Bin(op, Box::new(lhs), Box::new(self.factor()?));
        }
    }

    fn factor(&mut self) -> Result<SqlExpr, ParseError> {
        if self.eat_sym('-') {
            return Ok(SqlExpr::Neg(Box::new(self.nested(Self::factor)?)));
        }
        if self.eat_sym('+') {
            return self.nested(Self::factor);
        }
        if self.eat_sym('(') {
            let e = self.nested(Self::expr)?;
            self.expect_sym(')')?;
            return Ok(e);
        }
        match self.next() {
            Some(Tok::Num(n)) => Ok(SqlExpr::Num(n)),
            Some(Tok::Str(s)) => Ok(SqlExpr::Str(s)),
            Some(Tok::Ident(name)) => {
                let lname = name.to_lowercase();
                if lname == "case" {
                    return self.nested(Self::case_expr);
                }
                if lname == "cast" {
                    return self.nested(Self::cast_expr);
                }
                // Aggregate call?
                let agg = match lname.as_str() {
                    "sum" => Some(AggFunc::Sum),
                    "avg" => Some(AggFunc::Avg),
                    "min" => Some(AggFunc::Min),
                    "max" => Some(AggFunc::Max),
                    "count" => Some(AggFunc::Count),
                    _ => None,
                };
                if let Some(f) = agg {
                    if self.eat_sym('(') {
                        if f == AggFunc::Count && self.eat_sym('*') {
                            self.expect_sym(')')?;
                            return Ok(SqlExpr::CountStar);
                        }
                        let f = if f == AggFunc::Count && self.eat_kw("distinct") {
                            AggFunc::CountDistinct
                        } else {
                            f
                        };
                        let inner = self.nested(Self::expr)?;
                        self.expect_sym(')')?;
                        return Ok(SqlExpr::Agg(f, Box::new(inner)));
                    }
                }
                if Self::is_kw(&lname) {
                    return self.err(format!("unexpected keyword {lname}"));
                }
                let mut parts = vec![lname];
                while self.eat_sym('.') {
                    parts.push(self.ident()?);
                }
                Ok(SqlExpr::Ident(parts))
            }
            _ => self.err("expected expression"),
        }
    }

    /// `CASE WHEN p THEN e … [ELSE e] END` (the CASE keyword is consumed).
    fn case_expr(&mut self) -> Result<SqlExpr, ParseError> {
        let mut branches = Vec::new();
        while self.eat_kw("when") {
            let p = self.pred()?;
            self.expect_kw("then")?;
            let e = self.expr()?;
            branches.push((p, e));
        }
        if branches.is_empty() {
            return self.err("CASE needs at least one WHEN");
        }
        let else_ = if self.eat_kw("else") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("end")?;
        Ok(SqlExpr::Case { branches, else_ })
    }

    /// `CAST(e AS DECIMAL(p, s))` (the CAST keyword is consumed).
    fn cast_expr(&mut self) -> Result<SqlExpr, ParseError> {
        self.expect_sym('(')?;
        let e = self.expr()?;
        self.expect_kw("as")?;
        self.expect_kw("decimal")?;
        self.expect_sym('(')?;
        let at = self.at();
        let p = match self.next() {
            Some(Tok::Num(n)) => {
                n.parse().map_err(|_| ParseError { msg: "bad precision".into(), at })?
            }
            _ => return self.err("expected precision"),
        };
        self.expect_sym(',')?;
        let at = self.at();
        let sc = match self.next() {
            Some(Tok::Num(n)) => n.parse().map_err(|_| ParseError { msg: "bad scale".into(), at })?,
            _ => return self.err("expected scale"),
        };
        self.expect_sym(')')?;
        self.expect_sym(')')?;
        Ok(SqlExpr::Cast(Box::new(e), p, sc))
    }

    // ---- predicates ----

    fn pred(&mut self) -> Result<Pred, ParseError> {
        let base = self.depth;
        let mut lhs = self.pred_and()?;
        while self.eat_kw("or") {
            self.descend()?;
            lhs = Pred::Or(Box::new(lhs), Box::new(self.pred_and()?));
        }
        self.depth = base;
        Ok(lhs)
    }

    fn pred_and(&mut self) -> Result<Pred, ParseError> {
        let base = self.depth;
        let mut lhs = self.pred_atom()?;
        while self.eat_kw("and") {
            self.descend()?;
            lhs = Pred::And(Box::new(lhs), Box::new(self.pred_atom()?));
        }
        self.depth = base;
        Ok(lhs)
    }

    fn pred_atom(&mut self) -> Result<Pred, ParseError> {
        if self.eat_kw("not") {
            return Ok(Pred::Not(Box::new(self.nested(Self::pred_atom)?)));
        }
        if self.eat_sym('(') {
            let p = self.nested(Self::pred)?;
            self.expect_sym(')')?;
            return Ok(p);
        }
        let lhs = self.expr()?;
        if self.eat_kw("between") {
            let lo = self.expr()?;
            self.expect_kw("and")?;
            let hi = self.expr()?;
            return Ok(Pred::Between(lhs, lo, hi));
        }
        if self.eat_kw("like") {
            match self.next() {
                Some(Tok::Str(p)) => return Ok(Pred::Like(lhs, p)),
                _ => return self.err("expected string pattern after LIKE"),
            }
        }
        let op = match self.next() {
            Some(Tok::Sym('=')) => CmpOp::Eq,
            Some(Tok::Ne) => CmpOp::Ne,
            Some(Tok::Sym('<')) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Sym('>')) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            _ => return self.err("expected comparison operator"),
        };
        let rhs = self.expr()?;
        Ok(Pred::Cmp(op, lhs, rhs))
    }

    // ---- select ----

    fn select(&mut self) -> Result<Select, ParseError> {
        self.expect_kw("select")?;
        let mut items = Vec::new();
        loop {
            let e = self.expr()?;
            let alias = if self.eat_kw("as") { Some(self.ident()?) } else { None };
            items.push((e, alias));
            if !self.eat_sym(',') {
                break;
            }
        }
        self.expect_kw("from")?;
        let from = self.ident()?;
        let from_alias = self.opt_alias()?;
        let mut joins = Vec::new();
        loop {
            let _ = self.eat_kw("inner");
            if !self.eat_kw("join") {
                break;
            }
            let table = self.ident()?;
            let alias = self.opt_alias()?;
            self.expect_kw("on")?;
            let mut on = Vec::new();
            loop {
                let l = self.expr()?;
                self.expect_sym('=')?;
                let r = self.expr()?;
                on.push((l, r));
                if !self.eat_kw("and") {
                    break;
                }
            }
            joins.push(Join { table, alias, on });
        }
        let where_ = if self.eat_kw("where") { Some(self.pred()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_sym(',') {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") { Some(self.pred()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let e = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    let _ = self.eat_kw("asc");
                    false
                };
                order_by.push((e, desc));
                if !self.eat_sym(',') {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            let at = self.at();
            match self.next() {
                Some(Tok::Num(n)) => Some(n.parse().map_err(|_| ParseError { msg: "bad limit".into(), at })?),
                _ => return self.err("expected number after LIMIT"),
            }
        } else {
            None
        };
        let _ = self.eat_sym(';');
        if self.pos != self.toks.len() {
            return self.err("trailing tokens after statement");
        }
        Ok(Select { items, from, from_alias, joins, where_, group_by, having, order_by, limit })
    }

    fn opt_alias(&mut self) -> Result<Option<String>, ParseError> {
        if self.eat_kw("as") {
            return Ok(Some(self.ident()?));
        }
        if let Some(Tok::Ident(s)) = self.peek() {
            if !Self::is_kw(s) {
                let a = s.to_lowercase();
                self.pos += 1;
                return Ok(Some(a));
            }
        }
        Ok(None)
    }
}

/// Parses one `SELECT` statement.
pub fn parse_select(sql: &str) -> Result<Select, ParseError> {
    let toks = lex(sql)?;
    let mut p = Parser { toks, pos: 0, end: sql.len(), depth: 0 };
    p.select()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query1() {
        let s = parse_select("SELECT c1+c2+c3 FROM R1;").unwrap();
        assert_eq!(s.from, "r1");
        assert_eq!(s.items.len(), 1);
        assert!(matches!(s.items[0].0, SqlExpr::Bin(BinOp::Add, _, _)));
    }

    #[test]
    fn parses_paper_query3_aggregate() {
        let s = parse_select("SELECT SUM(c1) FROM R3").unwrap();
        assert!(matches!(s.items[0].0, SqlExpr::Agg(AggFunc::Sum, _)));
    }

    #[test]
    fn parses_paper_query4_rsa() {
        let s = parse_select("SELECT c1 * c1 % 1000003 * c1 % 1000003 FROM R4").unwrap();
        // Left associativity: (((c1*c1) % N) * c1) % N.
        let SqlExpr::Bin(BinOp::Mod, inner, _) = &s.items[0].0 else {
            panic!("expected outer %");
        };
        assert!(matches!(**inner, SqlExpr::Bin(BinOp::Mul, _, _)));
    }

    #[test]
    fn parses_paper_query5_taylor() {
        let s = parse_select(
            "SELECT c1 - c1*c1*c1/6 + c1*c1*c1*c1*c1/120 FROM R5",
        )
        .unwrap();
        assert!(matches!(s.items[0].0, SqlExpr::Bin(BinOp::Add, _, _)));
    }

    #[test]
    fn parses_tpch_q1_shape() {
        let s = parse_select(
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
             SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
             SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
             AVG(l_quantity) AS avg_qty, COUNT(*) AS count_order \
             FROM lineitem WHERE l_shipdate <= '1998-09-02' \
             GROUP BY l_returnflag, l_linestatus \
             ORDER BY l_returnflag, l_linestatus",
        )
        .unwrap();
        assert_eq!(s.items.len(), 7);
        assert_eq!(s.group_by.len(), 2);
        assert_eq!(s.order_by.len(), 2);
        assert!(s.where_.is_some());
        assert_eq!(s.items[2].1.as_deref(), Some("sum_qty"));
    }

    #[test]
    fn parses_joins() {
        let s = parse_select(
            "SELECT o.o_totalprice FROM orders o \
             JOIN customer c ON o.o_custkey = c.c_custkey \
             WHERE c.c_mktsegment = 'BUILDING' LIMIT 10",
        )
        .unwrap();
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].table, "customer");
        assert_eq!(s.joins[0].alias.as_deref(), Some("c"));
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn parses_between_and_like() {
        let s = parse_select(
            "SELECT c1 FROM t WHERE c1 BETWEEN 1 AND 2 AND tag LIKE 'PROMO%' OR NOT c2 > 3",
        )
        .unwrap();
        assert!(s.where_.is_some());
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error_at_the_offending_token() {
        let d = MAX_EXPR_DEPTH;
        // The 257th `(`, unary `-`, NOT or chained `+` is the error position.
        let parens = format!("SELECT {}c1{} FROM t", "(".repeat(d + 1), ")".repeat(d + 1));
        let minus = format!("SELECT {}c1 FROM t", "-".repeat(d + 1));
        let nots = format!("SELECT c1 FROM t WHERE {}c1 > 0", "NOT ".repeat(d + 1));
        let chain = format!("SELECT c1{} FROM t", " + c1".repeat(d + 1));
        for (sql, at) in [
            (&parens, 7 + d),
            (&minus, 7 + d),
            (&nots, 23 + 4 * d),
            (&chain, chain.match_indices('+').nth(d).unwrap().0),
        ] {
            let e = parse_select(sql).unwrap_err();
            assert_eq!(e.at, at, "{e}");
            assert!(e.msg.contains("nested deeper than 256"), "{e}");
        }
        // One level less parses; depth is per path, so siblings reset it.
        let ok = format!("SELECT {}c1{} FROM t", "(".repeat(d), ")".repeat(d));
        assert!(parse_select(&ok).is_ok());
        let chain = format!("SELECT c1{} FROM t", " + c1".repeat(d));
        assert!(parse_select(&chain).is_ok());
        let wide = (0..4).map(|_| format!("{}c1", "-".repeat(d))).collect::<Vec<_>>().join(", ");
        assert!(parse_select(&format!("SELECT {wide} FROM t")).is_ok());
    }

    #[test]
    fn a_hundred_thousand_parentheses_are_a_parse_error() {
        let sql = format!("SELECT {}c1{} FROM t", "(".repeat(100_000), ")".repeat(100_000));
        let e = parse_select(&sql).unwrap_err();
        assert_eq!(e.at, 7 + MAX_EXPR_DEPTH);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_select("SELECT FROM t").is_err());
        assert!(parse_select("SELECT a FROM t WHERE").is_err());
        assert!(parse_select("SELECT a FROM t extra junk").is_err());
        assert!(parse_select("SELECT 'unterminated FROM t").is_err());
    }

    #[test]
    fn errors_at_end_of_input_report_the_input_length() {
        let at = |sql: &str| parse_select(sql).unwrap_err().at;
        assert_eq!(at("SELECT"), 6);
        assert_eq!(at(""), 0);
        // An out-of-range LIMIT is reported at the number, not after it.
        assert_eq!(at("SELECT x FROM t LIMIT 99999999999999999999999"), 22);
    }

    #[test]
    fn parses_case_when() {
        let s = parse_select(
            "SELECT SUM(CASE WHEN p_type LIKE 'PROMO%' THEN price ELSE 0 END) FROM t",
        )
        .unwrap();
        let SqlExpr::Agg(AggFunc::Sum, inner) = &s.items[0].0 else { panic!() };
        let SqlExpr::Case { branches, else_ } = &**inner else { panic!("{inner:?}") };
        assert_eq!(branches.len(), 1);
        assert!(else_.is_some());
        // Multiple branches without ELSE.
        let s2 = parse_select(
            "SELECT CASE WHEN a = 1 THEN 10 WHEN a = 2 THEN 20 END FROM t",
        )
        .unwrap();
        let SqlExpr::Case { branches, else_ } = &s2.items[0].0 else { panic!() };
        assert_eq!(branches.len(), 2);
        assert!(else_.is_none());
        assert!(parse_select("SELECT CASE END FROM t").is_err());
    }

    #[test]
    fn parses_count_distinct_and_having() {
        let s = parse_select(
            "SELECT g, COUNT(DISTINCT v) AS n FROM t GROUP BY g HAVING n > 3 ORDER BY g",
        )
        .unwrap();
        assert!(matches!(s.items[1].0, SqlExpr::Agg(AggFunc::CountDistinct, _)));
        assert!(s.having.is_some());
    }

    #[test]
    fn parses_cast() {
        let s = parse_select("SELECT CAST(a + b AS DECIMAL(20, 4)) FROM t").unwrap();
        let SqlExpr::Cast(inner, 20, 4) = &s.items[0].0 else { panic!("{:?}", s.items[0].0) };
        assert!(matches!(**inner, SqlExpr::Bin(BinOp::Add, _, _)));
    }

    #[test]
    fn numeric_literals_keep_text() {
        let s = parse_select("SELECT 0.25 * c1 FROM t").unwrap();
        let SqlExpr::Bin(BinOp::Mul, l, _) = &s.items[0].0 else { panic!() };
        assert_eq!(**l, SqlExpr::Num("0.25".into()));
    }
}
