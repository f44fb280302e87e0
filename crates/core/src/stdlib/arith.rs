//! Arithmetic processes over typed streams: `Add` (Figure 2), `Scale`
//! (Figure 12), and the `Divide`/`Average`/`Equal` trio of the Newton
//! square-root network (Figure 11).

use crate::channel::{ChannelReader, ChannelWriter};
use crate::error::Result;
use crate::process::{Iterative, ProcessCtx};
use crate::stream::{DataReader, DataWriter};
use crate::topology::ProcessTag;

/// Adds two `i64` streams element-wise (Figure 2), wrapping on overflow as
/// Java's `long` does: a Fibonacci loop that runs far ahead of its reader
/// wraps rather than panicking.
pub struct Add {
    a: DataReader,
    b: DataReader,
    out: DataWriter,
    tag: ProcessTag,
}

impl Add {
    /// `out[i] = a[i] + b[i]`.
    pub fn new(a: ChannelReader, b: ChannelReader, out: ChannelWriter) -> Self {
        let tag = ProcessTag::new("Add");
        for r in [&a, &b] {
            r.attach(&tag);
            r.declare_item::<i64>(8);
            r.declare_rate(1);
        }
        out.attach(&tag);
        out.declare_item::<i64>(8);
        out.declare_rate(1);
        Add {
            a: DataReader::new(a),
            b: DataReader::new(b),
            out: DataWriter::new(out),
            tag,
        }
    }
}

impl Iterative for Add {
    fn name(&self) -> String {
        "Add".into()
    }
    fn lint_tag(&self) -> Option<&ProcessTag> {
        Some(&self.tag)
    }
    fn step(&mut self, _ctx: &ProcessCtx) -> Result<()> {
        let x = self.a.read_i64()?;
        let y = self.b.read_i64()?;
        self.out.write_i64(x.wrapping_add(y))
    }
}

/// Multiplies each element of an `i64` stream by a constant (Figure 12),
/// wrapping on overflow as Java's `long` does.
pub struct Scale {
    factor: i64,
    input: DataReader,
    out: DataWriter,
    tag: ProcessTag,
}

impl Scale {
    /// `out[i] = factor * input[i]`.
    pub fn new(factor: i64, input: ChannelReader, out: ChannelWriter) -> Self {
        let tag = ProcessTag::new(format!("Scale(x{factor})"));
        input.attach(&tag);
        input.declare_item::<i64>(8);
        input.declare_rate(1);
        out.attach(&tag);
        out.declare_item::<i64>(8);
        out.declare_rate(1);
        Scale {
            factor,
            input: DataReader::new(input),
            out: DataWriter::new(out),
            tag,
        }
    }
}

impl Iterative for Scale {
    fn name(&self) -> String {
        format!("Scale(x{})", self.factor)
    }
    fn lint_tag(&self) -> Option<&ProcessTag> {
        Some(&self.tag)
    }
    fn step(&mut self, _ctx: &ProcessCtx) -> Result<()> {
        let v = self.input.read_i64()?;
        self.out.write_i64(v.wrapping_mul(self.factor))
    }
}

/// Divides two `f64` streams element-wise (Figure 11: computes `x / r`).
pub struct Divide {
    num: DataReader,
    den: DataReader,
    out: DataWriter,
    tag: ProcessTag,
}

impl Divide {
    /// `out[i] = num[i] / den[i]`.
    pub fn new(num: ChannelReader, den: ChannelReader, out: ChannelWriter) -> Self {
        let tag = ProcessTag::new("Divide");
        for r in [&num, &den] {
            r.attach(&tag);
            r.declare_item::<f64>(8);
            r.declare_rate(1);
        }
        out.attach(&tag);
        out.declare_item::<f64>(8);
        out.declare_rate(1);
        Divide {
            num: DataReader::new(num),
            den: DataReader::new(den),
            out: DataWriter::new(out),
            tag,
        }
    }
}

impl Iterative for Divide {
    fn name(&self) -> String {
        "Divide".into()
    }
    fn lint_tag(&self) -> Option<&ProcessTag> {
        Some(&self.tag)
    }
    fn step(&mut self, _ctx: &ProcessCtx) -> Result<()> {
        let n = self.num.read_f64()?;
        let d = self.den.read_f64()?;
        self.out.write_f64(n / d)
    }
}

/// Averages two `f64` streams element-wise (Figure 11:
/// `r_n = (x/r_{n-1} + r_{n-1}) / 2`).
pub struct Average {
    a: DataReader,
    b: DataReader,
    out: DataWriter,
    tag: ProcessTag,
}

impl Average {
    /// `out[i] = (a[i] + b[i]) / 2`.
    pub fn new(a: ChannelReader, b: ChannelReader, out: ChannelWriter) -> Self {
        let tag = ProcessTag::new("Average");
        for r in [&a, &b] {
            r.attach(&tag);
            r.declare_item::<f64>(8);
            r.declare_rate(1);
        }
        out.attach(&tag);
        out.declare_item::<f64>(8);
        out.declare_rate(1);
        Average {
            a: DataReader::new(a),
            b: DataReader::new(b),
            out: DataWriter::new(out),
            tag,
        }
    }
}

impl Iterative for Average {
    fn name(&self) -> String {
        "Average".into()
    }
    fn lint_tag(&self) -> Option<&ProcessTag> {
        Some(&self.tag)
    }
    fn step(&mut self, _ctx: &ProcessCtx) -> Result<()> {
        let x = self.a.read_f64()?;
        let y = self.b.read_f64()?;
        self.out.write_f64((x + y) / 2.0)
    }
}

/// Tests two `f64` streams for element-wise equality, emitting a boolean
/// stream (Figure 11: fires when the root estimate stops changing).
pub struct Equal {
    a: DataReader,
    b: DataReader,
    out: DataWriter,
    tag: ProcessTag,
}

impl Equal {
    /// `out[i] = (a[i] == b[i])` as a boolean byte.
    pub fn new(a: ChannelReader, b: ChannelReader, out: ChannelWriter) -> Self {
        let tag = ProcessTag::new("Equal");
        for r in [&a, &b] {
            r.attach(&tag);
            r.declare_item::<f64>(8);
            r.declare_rate(1);
        }
        out.attach(&tag);
        out.declare_item::<bool>(1);
        out.declare_rate(1);
        Equal {
            a: DataReader::new(a),
            b: DataReader::new(b),
            out: DataWriter::new(out),
            tag,
        }
    }
}

impl Iterative for Equal {
    fn name(&self) -> String {
        "Equal".into()
    }
    fn lint_tag(&self) -> Option<&ProcessTag> {
        Some(&self.tag)
    }
    fn step(&mut self, _ctx: &ProcessCtx) -> Result<()> {
        let x = self.a.read_f64()?;
        let y = self.b.read_f64()?;
        self.out.write_bool(x == y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::stdlib::{Collect, CollectF64, Sequence};
    use std::sync::{Arc, Mutex};

    #[test]
    fn add_sums_pairwise() {
        let net = Network::new();
        let (aw, ar) = net.channel();
        let (bw, br) = net.channel();
        let (ow, or) = net.channel();
        let out = Arc::new(Mutex::new(Vec::new()));
        net.add(Sequence::new(0, 10, aw));
        net.add(Sequence::new(100, 10, bw));
        net.add(Add::new(ar, br, ow));
        net.add(Collect::new(or, out.clone()));
        net.run().unwrap();
        assert_eq!(
            *out.lock().unwrap(),
            (0..10).map(|i| 100 + 2 * i).collect::<Vec<i64>>()
        );
    }

    #[test]
    fn add_stops_at_shorter_stream() {
        let net = Network::new();
        let (aw, ar) = net.channel();
        let (bw, br) = net.channel();
        let (ow, or) = net.channel();
        let out = Arc::new(Mutex::new(Vec::new()));
        net.add(Sequence::new(0, 3, aw));
        net.add(Sequence::new(0, 10, bw));
        net.add(Add::new(ar, br, ow));
        net.add(Collect::new(or, out.clone()));
        net.run().unwrap();
        assert_eq!(out.lock().unwrap().len(), 3);
    }

    #[test]
    fn add_and_scale_wrap_like_java_long() {
        use crate::stdlib::Constant;
        let net = Network::new();
        let (aw, ar) = net.channel();
        let (bw, br) = net.channel();
        let (sw, sr) = net.channel();
        let (ow, or) = net.channel();
        let (pw, pr) = net.channel();
        let sum = Arc::new(Mutex::new(Vec::new()));
        let product = Arc::new(Mutex::new(Vec::new()));
        net.add(Constant::new(i64::MAX, aw).with_limit(1));
        net.add(Constant::new(1, bw).with_limit(1));
        net.add(Add::new(ar, br, ow));
        net.add(Collect::new(or, sum.clone()));
        net.add(Constant::new(i64::MAX, sw).with_limit(1));
        net.add(Scale::new(2, sr, pw));
        net.add(Collect::new(pr, product.clone()));
        net.run().unwrap();
        assert_eq!(*sum.lock().unwrap(), vec![i64::MIN]);
        assert_eq!(*product.lock().unwrap(), vec![-2]);
    }

    #[test]
    fn scale_multiplies() {
        let net = Network::new();
        let (iw, ir) = net.channel();
        let (ow, or) = net.channel();
        let out = Arc::new(Mutex::new(Vec::new()));
        net.add(Sequence::new(1, 5, iw));
        net.add(Scale::new(5, ir, ow));
        net.add(Collect::new(or, out.clone()));
        net.run().unwrap();
        assert_eq!(*out.lock().unwrap(), vec![5, 10, 15, 20, 25]);
    }

    #[test]
    fn divide_average_equal_pipeline() {
        use crate::stream::DataWriter;
        let net = Network::new();
        let (nw, nr) = net.channel();
        let (dw, dr) = net.channel();
        let (qw, qr) = net.channel();
        let out = Arc::new(Mutex::new(Vec::new()));
        net.add_fn("nums", move |_| {
            let mut w = DataWriter::new(nw);
            for v in [8.0, 9.0, 10.0] {
                w.write_f64(v)?;
            }
            Ok(())
        });
        net.add_fn("dens", move |_| {
            let mut w = DataWriter::new(dw);
            for v in [2.0, 3.0, 4.0] {
                w.write_f64(v)?;
            }
            Ok(())
        });
        net.add(Divide::new(nr, dr, qw));
        net.add(CollectF64::new(qr, out.clone()));
        net.run().unwrap();
        assert_eq!(*out.lock().unwrap(), vec![4.0, 3.0, 2.5]);
    }
}
