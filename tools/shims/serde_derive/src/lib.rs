//! Offline dev shim for `serde_derive`: emits real field-wise JSON
//! (de)serialisation through the shim `serde` traits, so shim-mode runs
//! produce correct output instead of `null` placeholders. Handles the
//! shapes this workspace derives on — non-generic named-field structs and
//! enums with unit / named-field / tuple variants (serde's external
//! tagging). Anything else is rejected at expansion time with a clear
//! error. Never shipped.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Body {
    /// `struct Name;`
    Unit,
    /// `struct Name { a: A, b: B }`
    Named(Vec<String>),
}

enum VariantShape {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

enum Item {
    Struct(Body),
    Enum(Vec<(String, VariantShape)>),
}

struct Parsed {
    name: String,
    item: Item,
}

/// Advance past any `#[...]` attribute pairs starting at `i`.
fn skip_attrs(tokens: &[TokenTree], i: &mut usize) {
    while let Some(TokenTree::Punct(p)) = tokens.get(*i) {
        if p.as_char() != '#' {
            break;
        }
        *i += 2; // '#' + the [...] group
    }
}

fn is_punct(tt: Option<&TokenTree>, c: char) -> bool {
    matches!(tt, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

/// Field names of a `{ ... }` body (struct or enum variant). Commas inside
/// angle brackets (`Map<K, V>`) do not split fields.
fn named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        // Idents up to the first ':' are visibility + the field name.
        let mut name = None;
        while i < tokens.len() && !is_punct(tokens.get(i), ':') {
            if let TokenTree::Ident(id) = &tokens[i] {
                name = Some(id.to_string());
            }
            i += 1;
        }
        fields.push(name.expect("serde shim derive: field without a name"));
        // Skip the type: everything up to a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

/// Number of fields in a `( ... )` tuple body.
fn tuple_arity(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut arity = 1;
    let mut depth = 0i32;
    for tt in &tokens {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => arity += 1,
            _ => {}
        }
    }
    arity
}

fn variants(stream: TokenStream) -> Vec<(String, VariantShape)> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim derive: expected variant name, got {other}"),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let s = VariantShape::Named(named_fields(g.stream()));
                i += 1;
                s
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let s = VariantShape::Tuple(tuple_arity(g.stream()));
                i += 1;
                s
            }
            _ => VariantShape::Unit,
        };
        // Skip any discriminant (`= expr`) up to the separating comma.
        while i < tokens.len() && !is_punct(tokens.get(i), ',') {
            i += 1;
        }
        i += 1; // the comma
        out.push((name, shape));
    }
    out
}

fn parse_item(input: TokenStream) -> Parsed {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let is_enum = loop {
        match tokens.get(i) {
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => break false,
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" => break true,
            Some(_) => i += 1,
            None => panic!("serde shim derive: no struct/enum keyword found"),
        }
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    i += 1;
    if is_punct(tokens.get(i), '<') {
        panic!("serde shim derive: generic type {name} is unsupported");
    }
    let item = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if is_enum {
                Item::Enum(variants(g.stream()))
            } else {
                Item::Struct(Body::Named(named_fields(g.stream())))
            }
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' && !is_enum => {
            Item::Struct(Body::Unit)
        }
        other => panic!(
            "serde shim derive: unsupported body for {name} (tuple struct?): {other:?}"
        ),
    };
    Parsed { name, item }
}

/// `out.push_str("<text>");` with `text` escaped as a Rust literal.
fn emit_lit(code: &mut String, text: &str) {
    code.push_str(&format!("out.push_str({text:?});"));
}

/// `out.push_str(&::serde::Serialize::shim_json(<expr>));`
fn emit_field(code: &mut String, expr: &str) {
    code.push_str(&format!(
        "out.push_str(&::serde::Serialize::shim_json({expr}));"
    ));
}

/// Body text serialising named fields reachable as `{prefix}{field}` into
/// an `out` string already positioned after an opening '{'.
fn emit_named_body(code: &mut String, fields: &[String], prefix: &str) {
    for (k, f) in fields.iter().enumerate() {
        if k > 0 {
            code.push_str("out.push(',');");
        }
        emit_lit(code, &format!("\"{f}\":"));
        emit_field(code, &format!("{prefix}{f}"));
    }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let Parsed { name, item } = parse_item(input);
    let mut body = String::new();
    match &item {
        Item::Struct(Body::Unit) => {
            body.push_str("let out = String::from(\"null\");");
        }
        Item::Struct(Body::Named(fields)) => {
            body.push_str("let mut out = String::from(\"{\");");
            emit_named_body(&mut body, fields, "&self.");
            body.push_str("out.push('}');");
        }
        Item::Enum(vars) => {
            body.push_str("let out = match self {");
            for (v, shape) in vars {
                match shape {
                    VariantShape::Unit => {
                        body.push_str(&format!(
                            "{name}::{v} => String::from({:?}),",
                            format!("\"{v}\"")
                        ));
                    }
                    VariantShape::Named(fields) => {
                        let pat: Vec<&str> = fields.iter().map(|s| s.as_str()).collect();
                        body.push_str(&format!(
                            "{name}::{v} {{ {} }} => {{",
                            pat.join(", ")
                        ));
                        body.push_str("let mut out = String::new();");
                        emit_lit(&mut body, &format!("{{\"{v}\":{{"));
                        emit_named_body(&mut body, fields, "");
                        emit_lit(&mut body, "}}");
                        body.push_str("out},");
                    }
                    VariantShape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("v{k}")).collect();
                        body.push_str(&format!(
                            "{name}::{v}({}) => {{",
                            binds.join(", ")
                        ));
                        body.push_str("let mut out = String::new();");
                        if *n == 1 {
                            emit_lit(&mut body, &format!("{{\"{v}\":"));
                            emit_field(&mut body, "v0");
                        } else {
                            emit_lit(&mut body, &format!("{{\"{v}\":["));
                            for (k, b) in binds.iter().enumerate() {
                                if k > 0 {
                                    body.push_str("out.push(',');");
                                }
                                emit_field(&mut body, b);
                            }
                            body.push_str("out.push(']');");
                        }
                        body.push_str("out.push('}');");
                        body.push_str("out},");
                    }
                }
            }
            body.push_str("};");
        }
    }
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn shim_json(&self) -> String {{ {body} out }}\n\
         }}"
    )
    .parse()
    .unwrap()
}

const SV: &str = "::serde::value::Value";

/// `<field>: ::serde::Deserialize::shim_from_value(obj.get("<field>")...)?,`
fn emit_named_de(code: &mut String, fields: &[String]) {
    for f in fields {
        code.push_str(&format!(
            "{f}: ::serde::Deserialize::shim_from_value(\
                 obj.get({f:?}).unwrap_or(&{SV}::Null))?,"
        ));
    }
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let Parsed { name, item } = parse_item(input);
    let mut body = String::new();
    match &item {
        Item::Struct(Body::Unit) => {
            body.push_str(&format!("Ok({name})"));
        }
        Item::Struct(Body::Named(fields)) => {
            body.push_str(&format!(
                "let obj = match v {{ {SV}::Object(m) => m, other => \
                     return Err(format!(\"expected object for {name}, got {{other:?}}\")) }};"
            ));
            body.push_str(&format!("Ok({name} {{"));
            emit_named_de(&mut body, fields);
            body.push_str("})");
        }
        Item::Enum(vars) => {
            let has_data = vars
                .iter()
                .any(|(_, s)| !matches!(s, VariantShape::Unit));
            body.push_str("match v {");
            // Unit variants arrive as plain strings.
            body.push_str(&format!("{SV}::String(s) => match s.as_str() {{"));
            for (v, shape) in vars {
                if matches!(shape, VariantShape::Unit) {
                    body.push_str(&format!("{v:?} => Ok({name}::{v}),"));
                }
            }
            body.push_str(&format!(
                "other => Err(format!(\"unknown unit variant {{other:?}} for {name}\")), }},"
            ));
            // Data variants arrive as single-key objects.
            if has_data {
                body.push_str(&format!(
                    "{SV}::Object(m) if m.len() == 1 => {{\
                         let (k, inner) = m.iter().next().unwrap();\
                         match k.as_str() {{"
                ));
                for (v, shape) in vars {
                    match shape {
                        VariantShape::Unit => {}
                        VariantShape::Named(fields) => {
                            body.push_str(&format!(
                                "{v:?} => {{ let obj = match inner {{ \
                                     {SV}::Object(m2) => m2, other => return Err(format!(\
                                     \"expected object for {name}::{v}, got {{other:?}}\")) }};"
                            ));
                            body.push_str(&format!("Ok({name}::{v} {{"));
                            emit_named_de(&mut body, fields);
                            body.push_str("})},");
                        }
                        VariantShape::Tuple(1) => {
                            body.push_str(&format!(
                                "{v:?} => Ok({name}::{v}(\
                                     ::serde::Deserialize::shim_from_value(inner)?)),"
                            ));
                        }
                        VariantShape::Tuple(n) => {
                            let elems: Vec<String> = (0..*n)
                                .map(|k| {
                                    format!(
                                        "::serde::Deserialize::shim_from_value(&a[{k}])?"
                                    )
                                })
                                .collect();
                            body.push_str(&format!(
                                "{v:?} => match inner {{ \
                                     {SV}::Array(a) if a.len() == {n} => \
                                         Ok({name}::{v}({})), \
                                     other => Err(format!(\"expected {n}-element array \
                                         for {name}::{v}, got {{other:?}}\")) }},",
                                elems.join(", ")
                            ));
                        }
                    }
                }
                body.push_str(&format!(
                    "other => Err(format!(\"unknown variant {{other:?}} for {name}\")), }} }},"
                ));
            }
            body.push_str(&format!(
                "other => Err(format!(\"expected enum value for {name}, got {{other:?}}\")), }}"
            ));
        }
    }
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
             fn shim_from_value(v: &{SV}) -> ::std::result::Result<Self, String> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
    .parse()
    .unwrap()
}
