//! Built-in functions and built-in-type methods.
//!
//! Builtins are bound to global slots at session load (shadowable by user
//! code, like Python). Methods are resolved to dense [`MethodId`]s at load so
//! the hot call path never touches strings; dispatch is on
//! `(receiver type, method id)`.

use crate::error::{MpError, MpResult, RuntimeErrorKind};
use crate::heap::{IterState, Object, Str};
use crate::value::{Handle, Value};
use crate::vm::Vm;

/// Arities up to this use a fixed stack buffer instead of a heap `Vec` when
/// copying call arguments out of the operand stack.
const INLINE_ARGS: usize = 8;

/// Identifier of a built-in function.
#[allow(missing_docs)] // variants mirror the Python builtin names
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinFn {
    Print,
    Len,
    Range,
    Abs,
    Min,
    Max,
    Sum,
    Int,
    Float,
    Str,
    Bool,
    Sorted,
    Chr,
    Ord,
    List,
    Tuple,
    Dict,
    Enumerate,
    Zip,
    Sqrt,
    Sin,
    Cos,
    Exp,
    Log,
    Floor,
    Ceil,
    Round,
}

/// Resolves a global name to a builtin, if it is one.
pub fn resolve_builtin(name: &str) -> Option<BuiltinFn> {
    Some(match name {
        "print" => BuiltinFn::Print,
        "len" => BuiltinFn::Len,
        "range" => BuiltinFn::Range,
        "abs" => BuiltinFn::Abs,
        "min" => BuiltinFn::Min,
        "max" => BuiltinFn::Max,
        "sum" => BuiltinFn::Sum,
        "int" => BuiltinFn::Int,
        "float" => BuiltinFn::Float,
        "str" => BuiltinFn::Str,
        "bool" => BuiltinFn::Bool,
        "sorted" => BuiltinFn::Sorted,
        "chr" => BuiltinFn::Chr,
        "ord" => BuiltinFn::Ord,
        "list" => BuiltinFn::List,
        "tuple" => BuiltinFn::Tuple,
        "dict" => BuiltinFn::Dict,
        "enumerate" => BuiltinFn::Enumerate,
        "zip" => BuiltinFn::Zip,
        "sqrt" => BuiltinFn::Sqrt,
        "sin" => BuiltinFn::Sin,
        "cos" => BuiltinFn::Cos,
        "exp" => BuiltinFn::Exp,
        "log" => BuiltinFn::Log,
        "floor" => BuiltinFn::Floor,
        "ceil" => BuiltinFn::Ceil,
        "round" => BuiltinFn::Round,
        _ => return None,
    })
}

/// Identifier of a built-in-type method (dispatched by receiver type).
#[allow(missing_docs)] // variants mirror the Python method names
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodId {
    Append,
    Pop,
    Insert,
    Extend,
    Reverse,
    Sort,
    Count,
    Index,
    Remove,
    Clear,
    Copy,
    Get,
    Keys,
    Values,
    Items,
    SetDefault,
    Update,
    Split,
    Join,
    Upper,
    Lower,
    Strip,
    Replace,
    StartsWith,
    EndsWith,
    Find,
}

/// Resolves a method name to its id, if it is a known method.
pub fn resolve_method(name: &str) -> Option<MethodId> {
    Some(match name {
        "append" => MethodId::Append,
        "pop" => MethodId::Pop,
        "insert" => MethodId::Insert,
        "extend" => MethodId::Extend,
        "reverse" => MethodId::Reverse,
        "sort" => MethodId::Sort,
        "count" => MethodId::Count,
        "index" => MethodId::Index,
        "remove" => MethodId::Remove,
        "clear" => MethodId::Clear,
        "copy" => MethodId::Copy,
        "get" => MethodId::Get,
        "keys" => MethodId::Keys,
        "values" => MethodId::Values,
        "items" => MethodId::Items,
        "setdefault" => MethodId::SetDefault,
        "update" => MethodId::Update,
        "split" => MethodId::Split,
        "join" => MethodId::Join,
        "upper" => MethodId::Upper,
        "lower" => MethodId::Lower,
        "strip" => MethodId::Strip,
        "replace" => MethodId::Replace,
        "startswith" => MethodId::StartsWith,
        "endswith" => MethodId::EndsWith,
        "find" => MethodId::Find,
        _ => return None,
    })
}

fn value_err(msg: impl Into<String>) -> MpError {
    MpError::runtime(RuntimeErrorKind::Value, msg)
}

fn index_err(msg: impl Into<String>) -> MpError {
    MpError::runtime(RuntimeErrorKind::Index, msg)
}

impl Vm {
    fn arity_error(&self, what: &str, expected: &str, got: usize) -> MpError {
        MpError::type_error(format!(
            "{what}() takes {expected} arguments but {got} were given"
        ))
    }

    fn as_number(&self, v: Value, what: &str) -> MpResult<f64> {
        v.as_f64().ok_or_else(|| {
            MpError::type_error(format!(
                "{what}() requires a number, got {}",
                self.heap.type_name(v)
            ))
        })
    }

    fn as_int_strict(&self, v: Value, what: &str) -> MpResult<i64> {
        v.as_int().ok_or_else(|| {
            MpError::type_error(format!(
                "{what} requires an integer, got {}",
                self.heap.type_name(v)
            ))
        })
    }

    fn str_content(&self, v: Value) -> Option<&str> {
        match v {
            Value::Obj(h) => match self.heap.get(h) {
                Object::Str(s) => Some(s.as_str()),
                _ => None,
            },
            _ => None,
        }
    }

    /// Materializes any iterable into a vector of values, charging
    /// per-element cost. Strings yield freshly allocated one-char strings.
    pub(crate) fn iterable_to_vec(&mut self, v: Value) -> MpResult<Vec<Value>> {
        let out: Vec<Value> = match v {
            Value::Obj(h) => match self.heap.get(h) {
                Object::List(items) | Object::Tuple(items) => items.clone(),
                Object::Range { start, stop, step } => {
                    let (start, stop, step) = (*start, *stop, *step);
                    let mut vals = Vec::new();
                    let mut i = start;
                    if step > 0 {
                        while i < stop {
                            vals.push(Value::Int(i));
                            i += step;
                        }
                    } else {
                        while i > stop {
                            vals.push(Value::Int(i));
                            i += step;
                        }
                    }
                    vals
                }
                Object::Str(s) => {
                    let chars: Vec<char> = s.chars().collect();
                    let mut vals = Vec::with_capacity(chars.len());
                    for c in chars {
                        let h = self.alloc(Object::Str(Str::from(c)));
                        vals.push(Value::Obj(h));
                    }
                    vals
                }
                Object::Dict(d) => d.entries().map(|(k, _)| k).collect(),
                _ => {
                    return Err(MpError::type_error(format!(
                        "'{}' object is not iterable",
                        self.heap.type_name(v)
                    )));
                }
            },
            _ => {
                return Err(MpError::type_error(format!(
                    "'{}' object is not iterable",
                    self.heap.type_name(v)
                )));
            }
        };
        self.charge_aux(self.cost.per_element * out.len() as f64, true);
        Ok(out)
    }

    /// Invokes builtin `b` with `argc` arguments on the stack (callee below
    /// them); replaces callee+args with the result.
    pub(crate) fn invoke_builtin(&mut self, b: BuiltinFn, argc: usize) -> MpResult<()> {
        let len = self.stack.len();
        let args_start = len - argc;
        // Copy args out (Values are Copy); callee sits at args_start - 1.
        // Small arities use a stack buffer so hot call sites never allocate.
        let result = if argc <= INLINE_ARGS {
            let mut buf = [Value::None; INLINE_ARGS];
            buf[..argc].copy_from_slice(&self.stack[args_start..]);
            self.builtin_result(b, &buf[..argc])?
        } else {
            let args: Vec<Value> = self.stack[args_start..].to_vec();
            self.builtin_result(b, &args)?
        };
        self.stack.truncate(args_start - 1);
        self.stack.push(result);
        Ok(())
    }

    fn builtin_result(&mut self, b: BuiltinFn, args: &[Value]) -> MpResult<Value> {
        match b {
            BuiltinFn::Print => {
                if self.capture_output {
                    let parts: Vec<String> = args.iter().map(|&a| self.heap.render(a)).collect();
                    let line = parts.join(" ");
                    // Rendering cost proportional to output length.
                    self.charge_aux(120.0 + 3.0 * line.len() as f64, false);
                    self.stdout.push_str(&line);
                    self.stdout.push('\n');
                } else {
                    self.charge_aux(80.0, false);
                }
                Ok(Value::None)
            }
            BuiltinFn::Len => {
                let [v] = args else {
                    return Err(self.arity_error("len", "1", args.len()));
                };
                let n = match *v {
                    Value::Obj(h) => match self.heap.get(h) {
                        Object::Str(s) => s.char_count() as i64,
                        Object::List(v) | Object::Tuple(v) => v.len() as i64,
                        Object::Dict(d) => d.len() as i64,
                        Object::Range { start, stop, step } => {
                            if *step > 0 {
                                ((stop - start).max(0) + step - 1) / step
                            } else {
                                ((start - stop).max(0) + (-step) - 1) / (-step)
                            }
                        }
                        _ => {
                            return Err(MpError::type_error(format!(
                                "object of type '{}' has no len()",
                                self.heap.type_name(*v)
                            )));
                        }
                    },
                    _ => {
                        return Err(MpError::type_error(format!(
                            "object of type '{}' has no len()",
                            self.heap.type_name(*v)
                        )));
                    }
                };
                Ok(Value::Int(n))
            }
            BuiltinFn::Range => {
                let (start, stop, step) = match args {
                    [stop] => (0, self.as_int_strict(*stop, "range")?, 1),
                    [start, stop] => (
                        self.as_int_strict(*start, "range")?,
                        self.as_int_strict(*stop, "range")?,
                        1,
                    ),
                    [start, stop, step] => (
                        self.as_int_strict(*start, "range")?,
                        self.as_int_strict(*stop, "range")?,
                        self.as_int_strict(*step, "range")?,
                    ),
                    _ => return Err(self.arity_error("range", "1 to 3", args.len())),
                };
                if step == 0 {
                    return Err(value_err("range() arg 3 must not be zero"));
                }
                let h = self.alloc(Object::Range { start, stop, step });
                Ok(Value::Obj(h))
            }
            BuiltinFn::Abs => {
                let [v] = args else {
                    return Err(self.arity_error("abs", "1", args.len()));
                };
                match *v {
                    Value::Int(i) => Ok(Value::Int(i.checked_abs().ok_or_else(|| {
                        MpError::runtime(RuntimeErrorKind::Overflow, "abs overflow")
                    })?)),
                    Value::Float(f) => Ok(Value::Float(f.abs())),
                    Value::Bool(b) => Ok(Value::Int(i64::from(b))),
                    _ => Err(MpError::type_error("bad operand type for abs()")),
                }
            }
            BuiltinFn::Min | BuiltinFn::Max => {
                let want_min = b == BuiltinFn::Min;
                let name = if want_min { "min" } else { "max" };
                let candidates: Vec<Value> = if args.len() == 1 {
                    self.iterable_to_vec(args[0])?
                } else if args.len() >= 2 {
                    args.to_vec()
                } else {
                    return Err(self.arity_error(name, "at least 1", args.len()));
                };
                let mut best = *candidates
                    .first()
                    .ok_or_else(|| value_err(format!("{name}() arg is an empty sequence")))?;
                self.charge_aux(self.cost.per_element * candidates.len() as f64, false);
                for &c in &candidates[1..] {
                    let ord = self.heap.value_cmp(c, best).ok_or_else(|| {
                        MpError::type_error(format!("{name}() got unorderable types"))
                    })?;
                    let better = if want_min {
                        ord == std::cmp::Ordering::Less
                    } else {
                        ord == std::cmp::Ordering::Greater
                    };
                    if better {
                        best = c;
                    }
                }
                Ok(best)
            }
            BuiltinFn::Sum => {
                let [v] = args else {
                    return Err(self.arity_error("sum", "1", args.len()));
                };
                let items = self.iterable_to_vec(*v)?;
                self.charge_aux(self.cost.per_element * items.len() as f64, false);
                let mut acc_i: i64 = 0;
                let mut acc_f: f64 = 0.0;
                let mut is_float = false;
                for item in items {
                    match item {
                        Value::Int(i) => {
                            if is_float {
                                acc_f += i as f64;
                            } else {
                                acc_i = acc_i.checked_add(i).ok_or_else(|| {
                                    MpError::runtime(RuntimeErrorKind::Overflow, "sum overflow")
                                })?;
                            }
                        }
                        Value::Bool(bv) => {
                            if is_float {
                                acc_f += f64::from(bv);
                            } else {
                                acc_i += i64::from(bv);
                            }
                        }
                        Value::Float(f) => {
                            if !is_float {
                                acc_f = acc_i as f64;
                                is_float = true;
                            }
                            acc_f += f;
                        }
                        other => {
                            return Err(MpError::type_error(format!(
                                "unsupported operand type for sum: '{}'",
                                self.heap.type_name(other)
                            )));
                        }
                    }
                }
                Ok(if is_float {
                    Value::Float(acc_f)
                } else {
                    Value::Int(acc_i)
                })
            }
            BuiltinFn::Int => {
                let [v] = args else {
                    return Err(self.arity_error("int", "1", args.len()));
                };
                match *v {
                    Value::Int(i) => Ok(Value::Int(i)),
                    Value::Bool(bv) => Ok(Value::Int(i64::from(bv))),
                    Value::Float(f) => {
                        if f.is_finite() && f.abs() < 9.2e18 {
                            Ok(Value::Int(f.trunc() as i64))
                        } else {
                            Err(MpError::runtime(
                                RuntimeErrorKind::Overflow,
                                "float too large",
                            ))
                        }
                    }
                    _ => {
                        match self.str_content(*v) {
                            Some(s) => s.trim().parse::<i64>().map(Value::Int).map_err(|_| {
                                value_err(format!("invalid literal for int(): '{s}'"))
                            }),
                            None => Err(MpError::type_error(
                                "int() argument must be a number or str",
                            )),
                        }
                    }
                }
            }
            BuiltinFn::Float => {
                let [v] = args else {
                    return Err(self.arity_error("float", "1", args.len()));
                };
                match *v {
                    Value::Float(f) => Ok(Value::Float(f)),
                    Value::Int(i) => Ok(Value::Float(i as f64)),
                    Value::Bool(bv) => Ok(Value::Float(f64::from(bv))),
                    _ => {
                        match self.str_content(*v) {
                            Some(s) => s.trim().parse::<f64>().map(Value::Float).map_err(|_| {
                                value_err(format!("could not convert '{s}' to float"))
                            }),
                            None => Err(MpError::type_error(
                                "float() argument must be a number or str",
                            )),
                        }
                    }
                }
            }
            BuiltinFn::Str => {
                let [v] = args else {
                    return Err(self.arity_error("str", "1", args.len()));
                };
                let s = self.heap.render(*v);
                self.charge_aux(2.0 * s.len() as f64, false);
                let h = self.alloc(Object::Str(Str::new(s)));
                Ok(Value::Obj(h))
            }
            BuiltinFn::Bool => {
                let [v] = args else {
                    return Err(self.arity_error("bool", "1", args.len()));
                };
                Ok(Value::Bool(self.heap.truthy(*v)))
            }
            BuiltinFn::Sorted => {
                let [v] = args else {
                    return Err(self.arity_error("sorted", "1", args.len()));
                };
                let mut items = self.iterable_to_vec(*v)?;
                self.sort_values(&mut items)?;
                let h = self.alloc(Object::List(items));
                Ok(Value::Obj(h))
            }
            BuiltinFn::Chr => {
                let [v] = args else {
                    return Err(self.arity_error("chr", "1", args.len()));
                };
                let i = self.as_int_strict(*v, "chr")?;
                let c = u32::try_from(i)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| value_err("chr() arg not in range"))?;
                let h = self.alloc(Object::Str(Str::from(c)));
                Ok(Value::Obj(h))
            }
            BuiltinFn::Ord => {
                let [v] = args else {
                    return Err(self.arity_error("ord", "1", args.len()));
                };
                let s = self
                    .str_content(*v)
                    .ok_or_else(|| MpError::type_error("ord() expected a string"))?;
                let mut chars = s.chars();
                match (chars.next(), chars.next()) {
                    (Some(c), None) => Ok(Value::Int(c as i64)),
                    _ => Err(MpError::type_error("ord() expected a character")),
                }
            }
            BuiltinFn::List => match args {
                [] => {
                    let h = self.alloc(Object::List(Vec::new()));
                    Ok(Value::Obj(h))
                }
                [v] => {
                    let items = self.iterable_to_vec(*v)?;
                    let h = self.alloc(Object::List(items));
                    Ok(Value::Obj(h))
                }
                _ => Err(self.arity_error("list", "0 or 1", args.len())),
            },
            BuiltinFn::Tuple => match args {
                [] => {
                    let h = self.alloc(Object::Tuple(Vec::new()));
                    Ok(Value::Obj(h))
                }
                [v] => {
                    let items = self.iterable_to_vec(*v)?;
                    let h = self.alloc(Object::Tuple(items));
                    Ok(Value::Obj(h))
                }
                _ => Err(self.arity_error("tuple", "0 or 1", args.len())),
            },
            BuiltinFn::Dict => match args {
                [] => {
                    let h = self.alloc(Object::Dict(crate::dict::Dict::new()));
                    Ok(Value::Obj(h))
                }
                _ => Err(self.arity_error("dict", "0", args.len())),
            },
            BuiltinFn::Enumerate => {
                let [v] = args else {
                    return Err(self.arity_error("enumerate", "1", args.len()));
                };
                let items = self.iterable_to_vec(*v)?;
                let mut out = Vec::with_capacity(items.len());
                for (i, item) in items.into_iter().enumerate() {
                    let t = self.alloc(Object::Tuple(vec![Value::Int(i as i64), item]));
                    out.push(Value::Obj(t));
                }
                let h = self.alloc(Object::List(out));
                Ok(Value::Obj(h))
            }
            BuiltinFn::Zip => {
                let [a, bx] = args else {
                    return Err(self.arity_error("zip", "2", args.len()));
                };
                let xs = self.iterable_to_vec(*a)?;
                let ys = self.iterable_to_vec(*bx)?;
                let n = xs.len().min(ys.len());
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let t = self.alloc(Object::Tuple(vec![xs[i], ys[i]]));
                    out.push(Value::Obj(t));
                }
                let h = self.alloc(Object::List(out));
                Ok(Value::Obj(h))
            }
            BuiltinFn::Sqrt | BuiltinFn::Sin | BuiltinFn::Cos | BuiltinFn::Exp | BuiltinFn::Log => {
                let name = match b {
                    BuiltinFn::Sqrt => "sqrt",
                    BuiltinFn::Sin => "sin",
                    BuiltinFn::Cos => "cos",
                    BuiltinFn::Exp => "exp",
                    _ => "log",
                };
                let [v] = args else {
                    return Err(self.arity_error(name, "1", args.len()));
                };
                let x = self.as_number(*v, name)?;
                let r = match b {
                    BuiltinFn::Sqrt => {
                        if x < 0.0 {
                            return Err(value_err("math domain error"));
                        }
                        x.sqrt()
                    }
                    BuiltinFn::Sin => x.sin(),
                    BuiltinFn::Cos => x.cos(),
                    BuiltinFn::Exp => x.exp(),
                    _ => {
                        if x <= 0.0 {
                            return Err(value_err("math domain error"));
                        }
                        x.ln()
                    }
                };
                Ok(Value::Float(r))
            }
            BuiltinFn::Floor | BuiltinFn::Ceil | BuiltinFn::Round => {
                let name = match b {
                    BuiltinFn::Floor => "floor",
                    BuiltinFn::Ceil => "ceil",
                    _ => "round",
                };
                let [v] = args else {
                    return Err(self.arity_error(name, "1", args.len()));
                };
                let x = self.as_number(*v, name)?;
                let r = match b {
                    BuiltinFn::Floor => x.floor(),
                    BuiltinFn::Ceil => x.ceil(),
                    _ => x.round(),
                };
                if r.is_finite() && r.abs() < 9.2e18 {
                    Ok(Value::Int(r as i64))
                } else {
                    Err(MpError::runtime(
                        RuntimeErrorKind::Overflow,
                        "result out of range",
                    ))
                }
            }
        }
    }

    /// Sorts values in place with Python ordering; charges n·log n work.
    pub(crate) fn sort_values(&mut self, items: &mut [Value]) -> MpResult<()> {
        let n = items.len();
        if n > 1 {
            let work = self.cost.per_element * 2.2 * n as f64 * (n as f64).log2().max(1.0);
            self.charge_aux(work, true);
        }
        let mut failed = false;
        items.sort_by(|a, b| match self.heap.value_cmp(*a, *b) {
            Some(o) => o,
            None => {
                failed = true;
                std::cmp::Ordering::Equal
            }
        });
        if failed {
            return Err(MpError::type_error("unorderable types in sort"));
        }
        Ok(())
    }

    /// Invokes method `mid` with `argc` args on the stack (receiver below
    /// them); replaces receiver+args with the result.
    pub(crate) fn invoke_method(&mut self, mid: MethodId, argc: usize) -> MpResult<()> {
        let len = self.stack.len();
        let args_start = len - argc;
        let receiver = self.stack[args_start - 1];
        let result = if argc <= INLINE_ARGS {
            let mut buf = [Value::None; INLINE_ARGS];
            buf[..argc].copy_from_slice(&self.stack[args_start..]);
            self.method_result(receiver, mid, &buf[..argc])?
        } else {
            let args: Vec<Value> = self.stack[args_start..].to_vec();
            self.method_result(receiver, mid, &args)?
        };
        self.stack.truncate(args_start - 1);
        self.stack.push(result);
        Ok(())
    }

    fn method_type_error(&self, receiver: Value, mid: MethodId) -> MpError {
        MpError::type_error(format!(
            "'{}' object has no method '{:?}'",
            self.heap.type_name(receiver),
            mid
        ))
    }

    fn method_result(&mut self, receiver: Value, mid: MethodId, args: &[Value]) -> MpResult<Value> {
        use crate::value::TypeTag;
        let tag = self.heap.type_tag(receiver);
        match tag {
            TypeTag::List => self.list_method(receiver, mid, args),
            TypeTag::Dict => self.dict_method(receiver, mid, args),
            TypeTag::Str => self.str_method(receiver, mid, args),
            _ => Err(self.method_type_error(receiver, mid)),
        }
    }

    fn expect_handle(&self, v: Value) -> Handle {
        match v {
            Value::Obj(h) => h,
            _ => unreachable!("caller checked the type tag"),
        }
    }

    fn list_method(&mut self, receiver: Value, mid: MethodId, args: &[Value]) -> MpResult<Value> {
        let h = self.expect_handle(receiver);
        match mid {
            MethodId::Append => {
                let [v] = args else {
                    return Err(self.arity_error("append", "1", args.len()));
                };
                let v = *v;
                match self.heap.get_mut(h) {
                    Object::List(items) => items.push(v),
                    _ => unreachable!("tag checked"),
                }
                Ok(Value::None)
            }
            MethodId::Pop => {
                let idx = match args {
                    [] => None,
                    [i] => Some(self.as_int_strict(*i, "pop")?),
                    _ => return Err(self.arity_error("pop", "0 or 1", args.len())),
                };
                match self.heap.get_mut(h) {
                    Object::List(items) => {
                        if items.is_empty() {
                            return Err(index_err("pop from empty list"));
                        }
                        let n = items.len() as i64;
                        let i = match idx {
                            None => n - 1,
                            Some(i) if i < 0 => i + n,
                            Some(i) => i,
                        };
                        if i < 0 || i >= n {
                            return Err(index_err("pop index out of range"));
                        }
                        Ok(items.remove(i as usize))
                    }
                    _ => unreachable!("tag checked"),
                }
            }
            MethodId::Insert => {
                let [i, v] = args else {
                    return Err(self.arity_error("insert", "2", args.len()));
                };
                let i = self.as_int_strict(*i, "insert")?;
                let v = *v;
                let n = match self.heap.get(h) {
                    Object::List(items) => items.len() as i64,
                    _ => unreachable!("tag checked"),
                };
                self.charge_aux(self.cost.per_element * n as f64 * 0.5, true);
                let pos = if i < 0 { (i + n).max(0) } else { i.min(n) } as usize;
                match self.heap.get_mut(h) {
                    Object::List(items) => items.insert(pos, v),
                    _ => unreachable!("tag checked"),
                }
                Ok(Value::None)
            }
            MethodId::Extend => {
                let [v] = args else {
                    return Err(self.arity_error("extend", "1", args.len()));
                };
                let other = self.iterable_to_vec(*v)?;
                match self.heap.get_mut(h) {
                    Object::List(items) => items.extend(other),
                    _ => unreachable!("tag checked"),
                }
                Ok(Value::None)
            }
            MethodId::Reverse => {
                let n = match self.heap.get_mut(h) {
                    Object::List(items) => {
                        items.reverse();
                        items.len()
                    }
                    _ => unreachable!("tag checked"),
                };
                self.charge_aux(self.cost.per_element * n as f64 * 0.5, true);
                Ok(Value::None)
            }
            MethodId::Sort => {
                let mut items = match self.heap.get_mut(h) {
                    Object::List(items) => std::mem::take(items),
                    _ => unreachable!("tag checked"),
                };
                let result = self.sort_values(&mut items);
                match self.heap.get_mut(h) {
                    Object::List(slot) => *slot = items,
                    _ => unreachable!("tag checked"),
                }
                result.map(|_| Value::None)
            }
            MethodId::Count => {
                let [v] = args else {
                    return Err(self.arity_error("count", "1", args.len()));
                };
                let items = match self.heap.get(h) {
                    Object::List(items) => items.clone(),
                    _ => unreachable!("tag checked"),
                };
                self.charge_aux(self.cost.per_element * items.len() as f64, true);
                let n = items.iter().filter(|&&x| self.heap.value_eq(x, *v)).count();
                Ok(Value::Int(n as i64))
            }
            MethodId::Index => {
                let [v] = args else {
                    return Err(self.arity_error("index", "1", args.len()));
                };
                let items = match self.heap.get(h) {
                    Object::List(items) => items.clone(),
                    _ => unreachable!("tag checked"),
                };
                for (i, &x) in items.iter().enumerate() {
                    self.charge_aux(self.cost.per_element, true);
                    if self.heap.value_eq(x, *v) {
                        return Ok(Value::Int(i as i64));
                    }
                }
                Err(value_err("value not in list"))
            }
            MethodId::Remove => {
                let [v] = args else {
                    return Err(self.arity_error("remove", "1", args.len()));
                };
                let items = match self.heap.get(h) {
                    Object::List(items) => items.clone(),
                    _ => unreachable!("tag checked"),
                };
                let pos = items.iter().position(|&x| self.heap.value_eq(x, *v));
                self.charge_aux(self.cost.per_element * items.len() as f64 * 0.5, true);
                match pos {
                    Some(i) => {
                        match self.heap.get_mut(h) {
                            Object::List(items) => {
                                items.remove(i);
                            }
                            _ => unreachable!("tag checked"),
                        }
                        Ok(Value::None)
                    }
                    None => Err(value_err("list.remove(x): x not in list")),
                }
            }
            MethodId::Clear => {
                match self.heap.get_mut(h) {
                    Object::List(items) => items.clear(),
                    _ => unreachable!("tag checked"),
                }
                Ok(Value::None)
            }
            MethodId::Copy => {
                let items = match self.heap.get(h) {
                    Object::List(items) => items.clone(),
                    _ => unreachable!("tag checked"),
                };
                self.charge_aux(self.cost.per_element * items.len() as f64, true);
                let new = self.alloc(Object::List(items));
                Ok(Value::Obj(new))
            }
            _ => Err(self.method_type_error(receiver, mid)),
        }
    }

    fn dict_method(&mut self, receiver: Value, mid: MethodId, args: &[Value]) -> MpResult<Value> {
        let h = self.expect_handle(receiver);
        match mid {
            MethodId::Get => {
                let (key, default) = match args {
                    [k] => (*k, Value::None),
                    [k, d] => (*k, *d),
                    _ => return Err(self.arity_error("get", "1 or 2", args.len())),
                };
                let mut probes = 0;
                let found = match self.heap.get(h) {
                    // Shared-access lookup: no need for the `with_dict_mut`
                    // move-out/move-back, which is probe-for-probe identical.
                    Object::Dict(d) => d.try_get(&self.heap, key, &mut probes)?,
                    _ => unreachable!("receiver checked as dict"),
                };
                self.charge_probes(probes);
                Ok(found.unwrap_or(default))
            }
            MethodId::Keys | MethodId::Values | MethodId::Items => {
                let entries: Vec<(Value, Value)> = match self.heap.get(h) {
                    Object::Dict(d) => d.entries().collect(),
                    _ => unreachable!("tag checked"),
                };
                self.charge_aux(self.cost.per_element * entries.len() as f64, true);
                let items: Vec<Value> = match mid {
                    MethodId::Keys => entries.into_iter().map(|(k, _)| k).collect(),
                    MethodId::Values => entries.into_iter().map(|(_, v)| v).collect(),
                    _ => {
                        let mut out = Vec::with_capacity(entries.len());
                        for (k, v) in entries {
                            let t = self.alloc(Object::Tuple(vec![k, v]));
                            out.push(Value::Obj(t));
                        }
                        out
                    }
                };
                let l = self.alloc(Object::List(items));
                Ok(Value::Obj(l))
            }
            MethodId::Pop => {
                let (key, default) = match args {
                    [k] => (*k, None),
                    [k, d] => (*k, Some(*d)),
                    _ => return Err(self.arity_error("pop", "1 or 2", args.len())),
                };
                let mut probes = 0;
                let removed = self
                    .heap
                    .with_dict_mut(h, |dict, heap| dict.remove(heap, key, &mut probes))?;
                self.charge_probes(probes);
                match (removed, default) {
                    (Some(v), _) => Ok(v),
                    (None, Some(d)) => Ok(d),
                    (None, None) => Err(MpError::runtime(RuntimeErrorKind::Key, "key not found")),
                }
            }
            MethodId::SetDefault => {
                let (key, default) = match args {
                    [k] => (*k, Value::None),
                    [k, d] => (*k, *d),
                    _ => return Err(self.arity_error("setdefault", "1 or 2", args.len())),
                };
                let mut probes = 0;
                let result = self
                    .heap
                    .with_dict_mut(h, |dict, heap| -> MpResult<Value> {
                        match dict.try_get(heap, key, &mut probes)? {
                            Some(v) => Ok(v),
                            None => {
                                dict.insert(heap, key, default, &mut probes)?;
                                Ok(default)
                            }
                        }
                    })?;
                self.charge_probes(probes);
                Ok(result)
            }
            MethodId::Update => {
                let [other] = args else {
                    return Err(self.arity_error("update", "1", args.len()));
                };
                let entries: Vec<(Value, Value)> = match *other {
                    Value::Obj(oh) => match self.heap.get(oh) {
                        Object::Dict(d) => d.entries().collect(),
                        _ => return Err(MpError::type_error("update() requires a dict")),
                    },
                    _ => return Err(MpError::type_error("update() requires a dict")),
                };
                let mut probes = 0;
                self.heap.with_dict_mut(h, |dict, heap| -> MpResult<()> {
                    for (k, v) in entries {
                        dict.insert(heap, k, v, &mut probes)?;
                    }
                    Ok(())
                })?;
                self.charge_probes(probes);
                Ok(Value::None)
            }
            MethodId::Clear => {
                match self.heap.get_mut(h) {
                    Object::Dict(d) => *d = crate::dict::Dict::new(),
                    _ => unreachable!("tag checked"),
                }
                Ok(Value::None)
            }
            MethodId::Copy => {
                let entries: Vec<(Value, Value)> = match self.heap.get(h) {
                    Object::Dict(d) => d.entries().collect(),
                    _ => unreachable!("tag checked"),
                };
                self.charge_aux(self.cost.per_element * entries.len() as f64, true);
                let new = self.alloc(Object::Dict(crate::dict::Dict::new()));
                let mut probes = 0;
                self.heap.with_dict_mut(new, |dict, heap| -> MpResult<()> {
                    for (k, v) in entries {
                        dict.insert(heap, k, v, &mut probes)?;
                    }
                    Ok(())
                })?;
                self.charge_probes(probes);
                Ok(Value::Obj(new))
            }
            _ => Err(self.method_type_error(receiver, mid)),
        }
    }

    fn str_method(&mut self, receiver: Value, mid: MethodId, args: &[Value]) -> MpResult<Value> {
        let h = self.expect_handle(receiver);
        let content = match self.heap.get(h) {
            Object::Str(s) => s.clone(),
            _ => unreachable!("tag checked"),
        };
        self.charge_aux(self.cost.per_element * 0.25 * content.len() as f64, true);
        match mid {
            MethodId::Split => {
                let parts: Vec<String> = match args {
                    [] => content.split_whitespace().map(str::to_string).collect(),
                    [sep] => {
                        let sep = self
                            .str_content(*sep)
                            .ok_or_else(|| MpError::type_error("split() separator must be str"))?
                            .to_string();
                        if sep.is_empty() {
                            return Err(value_err("empty separator"));
                        }
                        content.split(&sep).map(str::to_string).collect()
                    }
                    _ => return Err(self.arity_error("split", "0 or 1", args.len())),
                };
                let mut out = Vec::with_capacity(parts.len());
                for p in parts {
                    let sh = self.alloc(Object::Str(Str::new(p)));
                    out.push(Value::Obj(sh));
                }
                let l = self.alloc(Object::List(out));
                Ok(Value::Obj(l))
            }
            MethodId::Join => {
                let [v] = args else {
                    return Err(self.arity_error("join", "1", args.len()));
                };
                let items = self.iterable_to_vec(*v)?;
                let mut parts = Vec::with_capacity(items.len());
                for item in items {
                    match self.str_content(item) {
                        Some(s) => parts.push(s.to_string()),
                        None => {
                            return Err(MpError::type_error("join() requires str items"));
                        }
                    }
                }
                let joined = parts.join(&content);
                self.charge_aux(2.0 * joined.len() as f64, true);
                let sh = self.alloc(Object::Str(Str::new(joined)));
                Ok(Value::Obj(sh))
            }
            MethodId::Upper => {
                let sh = self.alloc(Object::Str(Str::new(content.to_uppercase())));
                Ok(Value::Obj(sh))
            }
            MethodId::Lower => {
                let sh = self.alloc(Object::Str(Str::new(content.to_lowercase())));
                Ok(Value::Obj(sh))
            }
            MethodId::Strip => {
                let sh = self.alloc(Object::Str(Str::new(content.trim().to_string())));
                Ok(Value::Obj(sh))
            }
            MethodId::Replace => {
                let [from, to] = args else {
                    return Err(self.arity_error("replace", "2", args.len()));
                };
                let from = self
                    .str_content(*from)
                    .ok_or_else(|| MpError::type_error("replace() args must be str"))?
                    .to_string();
                let to = self
                    .str_content(*to)
                    .ok_or_else(|| MpError::type_error("replace() args must be str"))?
                    .to_string();
                if from.is_empty() {
                    return Err(value_err("empty pattern"));
                }
                let sh = self.alloc(Object::Str(Str::new(content.replace(&from, &to))));
                Ok(Value::Obj(sh))
            }
            MethodId::StartsWith | MethodId::EndsWith => {
                let [p] = args else {
                    return Err(self.arity_error("startswith", "1", args.len()));
                };
                let p = self
                    .str_content(*p)
                    .ok_or_else(|| MpError::type_error("prefix must be str"))?;
                let r = if mid == MethodId::StartsWith {
                    content.starts_with(p)
                } else {
                    content.ends_with(p)
                };
                Ok(Value::Bool(r))
            }
            MethodId::Find => {
                let [p] = args else {
                    return Err(self.arity_error("find", "1", args.len()));
                };
                let p = self
                    .str_content(*p)
                    .ok_or_else(|| MpError::type_error("find() argument must be str"))?;
                match content.find(p) {
                    Some(byte) => Ok(Value::Int(content.char_offset(byte) as i64)),
                    None => Ok(Value::Int(-1)),
                }
            }
            MethodId::Count => {
                let [p] = args else {
                    return Err(self.arity_error("count", "1", args.len()));
                };
                let p = self
                    .str_content(*p)
                    .ok_or_else(|| MpError::type_error("count() argument must be str"))?;
                if p.is_empty() {
                    return Ok(Value::Int(content.char_count() as i64 + 1));
                }
                Ok(Value::Int(content.matches(p).count() as i64))
            }
            _ => Err(self.method_type_error(receiver, mid)),
        }
    }

    /// Creates an iterator object for `v` (the `GetIter` opcode).
    pub(crate) fn make_iterator(&mut self, v: Value) -> MpResult<Value> {
        let state = match v {
            Value::Obj(h) => match self.heap.get(h) {
                Object::Range { start, stop, step } => IterState::Range {
                    next: *start,
                    stop: *stop,
                    step: *step,
                },
                Object::List(_) | Object::Tuple(_) | Object::Str(_) => {
                    IterState::Seq { seq: h, index: 0 }
                }
                Object::Dict(_) => IterState::DictKeys { dict: h, slot: 0 },
                Object::Iter(_) => return Ok(v),
                _ => {
                    return Err(MpError::type_error(format!(
                        "'{}' object is not iterable",
                        self.heap.type_name(v)
                    )));
                }
            },
            _ => {
                return Err(MpError::type_error(format!(
                    "'{}' object is not iterable",
                    self.heap.type_name(v)
                )));
            }
        };
        let h = self.alloc(Object::Iter(state));
        Ok(Value::Obj(h))
    }

    /// Advances the iterator `it`; returns the next value or `None` when
    /// exhausted (the `ForIter` opcode).
    pub(crate) fn iterator_next(&mut self, it: Value) -> MpResult<Option<Value>> {
        let ih = match it {
            Value::Obj(h) => h,
            _ => {
                return Err(MpError::runtime(
                    RuntimeErrorKind::Internal,
                    "ForIter on non-iterator",
                ));
            }
        };
        // Range iteration needs no second heap access: advance in place.
        if let Object::Iter(IterState::Range { next, stop, step }) = self.heap.get_mut(ih) {
            let done = if *step > 0 {
                *next >= *stop
            } else {
                *next <= *stop
            };
            if done {
                return Ok(None);
            }
            let item = Value::Int(*next);
            *next += *step;
            return Ok(Some(item));
        }
        // Read the state, compute the step, then write back.
        let state = match self.heap.get(ih) {
            Object::Iter(s) => s.clone(),
            _ => {
                return Err(MpError::runtime(
                    RuntimeErrorKind::Internal,
                    "ForIter on non-iterator",
                ));
            }
        };
        let (next_state, item): (IterState, Option<Value>) = match state {
            IterState::Range { next, stop, step } => {
                let done = if step > 0 { next >= stop } else { next <= stop };
                if done {
                    (IterState::Range { next, stop, step }, None)
                } else {
                    (
                        IterState::Range {
                            next: next + step,
                            stop,
                            step,
                        },
                        Some(Value::Int(next)),
                    )
                }
            }
            IterState::Seq { seq, index } => match self.heap.get(seq) {
                Object::List(items) | Object::Tuple(items) => {
                    if index < items.len() {
                        let v = items[index];
                        (
                            IterState::Seq {
                                seq,
                                index: index + 1,
                            },
                            Some(v),
                        )
                    } else {
                        (IterState::Seq { seq, index }, None)
                    }
                }
                Object::Str(s) => {
                    let c = s.char_at(index);
                    match c {
                        Some(c) => {
                            let sh = self.alloc(Object::Str(Str::from(c)));
                            (
                                IterState::Seq {
                                    seq,
                                    index: index + 1,
                                },
                                Some(Value::Obj(sh)),
                            )
                        }
                        None => (IterState::Seq { seq, index }, None),
                    }
                }
                _ => {
                    return Err(MpError::runtime(
                        RuntimeErrorKind::Internal,
                        "sequence iterator over non-sequence",
                    ));
                }
            },
            IterState::DictKeys { dict, slot } => match self.heap.get(dict) {
                Object::Dict(d) => match d.next_entry_from(slot) {
                    Some((s, k, _v)) => (IterState::DictKeys { dict, slot: s + 1 }, Some(k)),
                    None => (IterState::DictKeys { dict, slot }, None),
                },
                _ => {
                    return Err(MpError::runtime(
                        RuntimeErrorKind::Internal,
                        "dict iterator over non-dict",
                    ));
                }
            },
        };
        match self.heap.get_mut(ih) {
            Object::Iter(s) => *s = next_state,
            _ => unreachable!("checked above"),
        }
        Ok(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_resolution_covers_core_names() {
        assert_eq!(resolve_builtin("print"), Some(BuiltinFn::Print));
        assert_eq!(resolve_builtin("len"), Some(BuiltinFn::Len));
        assert_eq!(resolve_builtin("range"), Some(BuiltinFn::Range));
        assert_eq!(resolve_builtin("sqrt"), Some(BuiltinFn::Sqrt));
        assert_eq!(resolve_builtin("nope"), None);
    }

    #[test]
    fn method_resolution() {
        assert_eq!(resolve_method("append"), Some(MethodId::Append));
        assert_eq!(resolve_method("setdefault"), Some(MethodId::SetDefault));
        assert_eq!(resolve_method("nonsense"), None);
    }
}
