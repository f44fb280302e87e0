//! The process registry: reconstructs processes from their serialized
//! descriptions on the receiving server.
//!
//! This substitutes for Java's ability to download class definitions
//! (§4.1): every node agrees on a set of named process types; a
//! [`crate::ProcessSpec`] names one and carries its constructor
//! parameters. The standard library of `kpn-core` is pre-registered by
//! [`ProcessRegistry::with_defaults`]; applications register their own
//! types (e.g. the generic Worker of `kpn-parallel`) the same way.

use kpn_core::stdlib::{
    Add, Average, Cons, Constant, ConstantF64, Discard, Divide, Duplicate, Equal, Guard, Identity,
    ModRouter, Modulo, OrderedMerge, Print, Scale, Sequence, Sift,
};
use kpn_core::{ChannelReader, ChannelWriter, Error, Iterative, IterativeProcess, Process, Result};
use serde::de::DeserializeOwned;
use std::collections::HashMap;

/// Builds a process from decoded parameters and its channel endpoints.
pub type Factory = Box<
    dyn Fn(&[u8], Vec<ChannelReader>, Vec<ChannelWriter>) -> Result<Box<dyn Process>> + Send + Sync,
>;

/// Maps process type names to factories.
pub struct ProcessRegistry {
    factories: HashMap<String, Factory>,
}

/// Decodes factory parameters with a codec error message that names the
/// offending process type.
pub fn decode_params<T: DeserializeOwned>(type_name: &str, params: &[u8]) -> Result<T> {
    kpn_codec::from_bytes(params)
        .map_err(|e| Error::Graph(format!("bad params for {type_name}: {e}")))
}

fn arity(
    type_name: &str,
    ins: &mut [ChannelReader],
    outs: &mut [ChannelWriter],
    expect_in: usize,
    expect_out: usize,
) -> Result<()> {
    if ins.len() != expect_in || outs.len() != expect_out {
        return Err(Error::Graph(format!(
            "{type_name} expects {expect_in} inputs / {expect_out} outputs, got {} / {}",
            ins.len(),
            outs.len()
        )));
    }
    Ok(())
}

impl ProcessRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ProcessRegistry {
            factories: HashMap::new(),
        }
    }

    /// A registry with the whole `kpn-core` standard library registered.
    pub fn with_defaults() -> Self {
        let mut reg = Self::new();
        reg.register_defaults();
        reg
    }

    /// Registers (or replaces) a factory under `name`.
    pub fn register(&mut self, name: impl Into<String>, factory: Factory) {
        self.factories.insert(name.into(), factory);
    }

    /// Registers an [`Iterative`]-producing closure under `name`.
    pub fn register_iterative<F, T>(&mut self, name: impl Into<String>, f: F)
    where
        T: Iterative,
        F: Fn(&[u8], Vec<ChannelReader>, Vec<ChannelWriter>) -> Result<T> + Send + Sync + 'static,
    {
        self.register(
            name,
            Box::new(move |params, ins, outs| {
                Ok(Box::new(IterativeProcess::new(f(params, ins, outs)?)))
            }),
        );
    }

    /// True when `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// Registered type names (sorted), for diagnostics.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.factories.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Instantiates a process from its serialized description.
    pub fn build(
        &self,
        type_name: &str,
        params: &[u8],
        inputs: Vec<ChannelReader>,
        outputs: Vec<ChannelWriter>,
    ) -> Result<Box<dyn Process>> {
        let factory = self.factories.get(type_name).ok_or_else(|| {
            Error::Graph(format!(
                "unknown process type {type_name:?}; registered: {:?}",
                self.names()
            ))
        })?;
        factory(params, inputs, outputs)
    }

    /// Registers a parameterless process of two inputs and one output.
    fn register_binary<T: Iterative + 'static>(
        &mut self,
        name: &'static str,
        new: fn(ChannelReader, ChannelReader, ChannelWriter) -> T,
    ) {
        self.register_iterative(name, move |_params, mut ins, mut outs| {
            arity(name, &mut ins, &mut outs, 2, 1)?;
            let b = ins.remove(1);
            Ok(new(ins.remove(0), b, outs.remove(0)))
        });
    }

    fn register_defaults(&mut self) {
        self.register_iterative("Constant", |params, mut ins, mut outs| {
            arity("Constant", &mut ins, &mut outs, 0, 1)?;
            let (value, limit): (i64, Option<u64>) = decode_params("Constant", params)?;
            let c = Constant::new(value, outs.remove(0));
            Ok(match limit {
                Some(n) => c.with_limit(n),
                None => c,
            })
        });
        self.register_iterative("ConstantF64", |params, mut ins, mut outs| {
            arity("ConstantF64", &mut ins, &mut outs, 0, 1)?;
            let (value, limit): (f64, Option<u64>) = decode_params("ConstantF64", params)?;
            let c = ConstantF64::new(value, outs.remove(0));
            Ok(match limit {
                Some(n) => c.with_limit(n),
                None => c,
            })
        });
        self.register_iterative("Sequence", |params, mut ins, mut outs| {
            arity("Sequence", &mut ins, &mut outs, 0, 1)?;
            let (start, count): (i64, Option<u64>) = decode_params("Sequence", params)?;
            Ok(match count {
                Some(n) => Sequence::new(start, n, outs.remove(0)),
                None => Sequence::unbounded(start, outs.remove(0)),
            })
        });
        self.register_iterative("Cons", |params, mut ins, mut outs| {
            arity("Cons", &mut ins, &mut outs, 2, 1)?;
            let self_removing: bool = decode_params("Cons", params)?;
            let rest = ins.remove(1);
            let first = ins.remove(0);
            let c = Cons::new(first, rest, outs.remove(0));
            Ok(if self_removing { c.removing_self() } else { c })
        });
        self.register_iterative("Duplicate", |_params, mut ins, outs| {
            if ins.len() != 1 || outs.is_empty() {
                return Err(Error::Graph("Duplicate expects 1 input, ≥1 output".into()));
            }
            Ok(Duplicate::new(ins.remove(0), outs))
        });
        self.register_iterative("Identity", |_params, mut ins, mut outs| {
            arity("Identity", &mut ins, &mut outs, 1, 1)?;
            Ok(Identity::new(ins.remove(0), outs.remove(0)))
        });
        self.register_binary("Add", Add::new);
        self.register_iterative("Scale", |params, mut ins, mut outs| {
            arity("Scale", &mut ins, &mut outs, 1, 1)?;
            let factor: i64 = decode_params("Scale", params)?;
            Ok(Scale::new(factor, ins.remove(0), outs.remove(0)))
        });
        self.register_binary("Divide", Divide::new);
        self.register_binary("Average", Average::new);
        self.register_binary("Equal", Equal::new);
        self.register_iterative("Guard", |params, mut ins, mut outs| {
            arity("Guard", &mut ins, &mut outs, 2, 1)?;
            let stop_after_first: bool = decode_params("Guard", params)?;
            let ctrl = ins.remove(1);
            let g = Guard::new(ins.remove(0), ctrl, outs.remove(0));
            Ok(if stop_after_first {
                g.stopping_after_first()
            } else {
                g
            })
        });
        self.register_iterative("Modulo", |params, mut ins, mut outs| {
            arity("Modulo", &mut ins, &mut outs, 1, 1)?;
            let divisor: i64 = decode_params("Modulo", params)?;
            Ok(Modulo::new(divisor, ins.remove(0), outs.remove(0)))
        });
        self.register_iterative("Sift", |_params, mut ins, mut outs| {
            arity("Sift", &mut ins, &mut outs, 1, 1)?;
            Ok(Sift::new(ins.remove(0), outs.remove(0)))
        });
        self.register_iterative("ModRouter", |params, mut ins, mut outs| {
            arity("ModRouter", &mut ins, &mut outs, 1, 2)?;
            let divisor: i64 = decode_params("ModRouter", params)?;
            let others = outs.remove(1);
            Ok(ModRouter::new(
                divisor,
                ins.remove(0),
                outs.remove(0),
                others,
            ))
        });
        self.register_iterative("OrderedMerge", |params, ins, mut outs| {
            if ins.len() < 2 || outs.len() != 1 {
                return Err(Error::Graph(
                    "OrderedMerge expects ≥2 inputs, 1 output".into(),
                ));
            }
            let dedup: bool = decode_params("OrderedMerge", params)?;
            let m = OrderedMerge::new(ins, outs.remove(0));
            Ok(if dedup { m } else { m.keeping_duplicates() })
        });
        self.register_iterative("Print", |params, mut ins, mut outs| {
            arity("Print", &mut ins, &mut outs, 1, 0)?;
            let (limit, label): (Option<u64>, String) = decode_params("Print", params)?;
            let mut p = Print::new(ins.remove(0)).with_label(label);
            if let Some(n) = limit {
                p = p.with_limit(n);
            }
            Ok(p)
        });
        self.register_iterative("Discard", |_params, mut ins, mut outs| {
            arity("Discard", &mut ins, &mut outs, 1, 0)?;
            Ok(Discard::new(ins.remove(0)))
        });
    }
}

impl Default for ProcessRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl std::fmt::Debug for ProcessRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProcessRegistry({} types)", self.factories.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpn_core::{channel, DataReader, Network};

    #[test]
    fn defaults_are_registered() {
        let reg = ProcessRegistry::with_defaults();
        for name in [
            "Constant",
            "Sequence",
            "Cons",
            "Duplicate",
            "Add",
            "Scale",
            "Print",
            "Sift",
            "Modulo",
            "OrderedMerge",
            "Guard",
            "Discard",
        ] {
            assert!(reg.contains(name), "{name} missing");
        }
    }

    #[test]
    fn unknown_type_is_reported() {
        let reg = ProcessRegistry::with_defaults();
        let err = match reg.build("Bogus", &[], vec![], vec![]) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected error"),
        };
        assert!(err.contains("Bogus"));
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let reg = ProcessRegistry::with_defaults();
        let err = match reg.build("Add", &[], vec![], vec![]) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected error"),
        };
        assert!(err.contains("Add expects 2"));
    }

    #[test]
    fn bad_params_are_reported() {
        let reg = ProcessRegistry::with_defaults();
        let (w, _r) = channel();
        let err = match reg.build("Scale", &[1, 2], vec![], vec![w]) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected error"),
        };
        // Scale needs 1 input too — but params are decoded after arity,
        // so craft the right arity with bad params:
        assert!(err.contains("Scale"));
        let (w, _r) = channel();
        let (_w2, r2) = channel();
        let err = match reg.build("Scale", &[1, 2], vec![r2], vec![w]) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected error"),
        };
        assert!(err.contains("bad params"));
    }

    #[test]
    fn built_process_runs() {
        let reg = ProcessRegistry::with_defaults();
        let net = Network::new();
        let (w, r) = net.channel();
        let params = kpn_codec::to_bytes(&(5i64, Some(3u64))).unwrap();
        let p = reg.build("Constant", &params, vec![], vec![w]).unwrap();
        net.add_process(p);
        net.start();
        let mut dr = DataReader::new(r);
        assert_eq!(dr.read_i64().unwrap(), 5);
        assert_eq!(dr.read_i64().unwrap(), 5);
        assert_eq!(dr.read_i64().unwrap(), 5);
        assert!(dr.read_i64().is_err());
        drop(dr);
        net.join().unwrap();
    }

    #[test]
    fn custom_registration_overrides() {
        let mut reg = ProcessRegistry::with_defaults();
        reg.register_iterative("Custom", |_p, _i, mut o| {
            arity("Custom", &mut [], &mut o, 0, 1)?;
            Ok(Constant::new(9, o.remove(0)).with_limit(1))
        });
        assert!(reg.contains("Custom"));
        assert!(reg.names().contains(&"Custom"));
    }
}
