//! Kernel-shape replay for the traced run: walk a workload's own lowered
//! graph, and time each convolution at the shape it runs at in that
//! graph, against the paper's cost model (`OPs = OPs_f + OPs_b/64`).

use scales_binary::count::conv2d_cost;
use scales_binary::CostReport;
use scales_core::{DeployedBodyConv, FloatConv2d};
use scales_models::{DeployedNetwork, DeployedOp};
use scales_tensor::workspace::{BitScratch, ConvScratch};
use scales_tensor::Tensor;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Sums over every replayed convolution of one or more graphs, at one
/// image per call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    /// `DeployedBodyConv::forward_into` of SCALES body convs: µs summed, calls.
    pub scales_us: f64,
    /// SCALES body convs replayed.
    pub scales_calls: usize,
    /// The bare `BinaryConv2d::forward_into` inside them, µs summed.
    pub binary_us: f64,
    /// A same-shape `FloatConv2d` with random weights, µs summed.
    pub float_same_us: f64,
    /// Binary MACs (`OPs_b`) of the replayed binary convs.
    pub binary_ops: u64,
    /// Head/tail `FloatConv2d::forward_into`, µs summed.
    pub float_conv_us: f64,
    /// The bare backend GEMM at the head/tail im2col shapes, µs summed.
    pub gemm_us: f64,
    /// FLOPs (2 · MACs) of those GEMMs.
    pub gemm_flops: u64,
    /// Cost model of one image through the graphs (conv layers).
    pub cost: CostReport,
}

/// Deterministic pseudo-random fill in `[-1, 1)`.
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// Median wall time of one call, µs: two warm-up calls, then repeats
/// until 25 ms or 400 calls (at least 7).
fn time_us(mut f: impl FnMut()) -> f64 {
    f();
    f();
    let mut samples = Vec::new();
    let begin = Instant::now();
    while samples.len() < 7 || (begin.elapsed() < Duration::from_millis(25) && samples.len() < 400)
    {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    crate::stats::median(&samples)
}

/// `(channels, height, width)` of every value of `graph` for an input of
/// `h × w` (value 0 is the input; op `i` produces value `i + 1`).
fn value_shapes(graph: &DeployedNetwork, h: usize, w: usize) -> Result<Vec<[usize; 3]>, String> {
    let mut shapes = vec![[3, h, w]];
    for op in graph.ops() {
        let err = |e: scales_tensor::TensorError| e.to_string();
        let next = match op {
            DeployedOp::FloatConv { conv, src } => {
                let [_, h, w] = shapes[*src];
                let (c, oh, ow) = conv.out_shape(h, w).map_err(err)?;
                [c, oh, ow]
            }
            DeployedOp::Body { conv, src } => {
                let [_, h, w] = shapes[*src];
                let (c, oh, ow) = conv.out_shape(h, w).map_err(err)?;
                [c, oh, ow]
            }
            DeployedOp::Relu { src }
            | DeployedOp::Prelu { src, .. }
            | DeployedOp::ChannelAttention { src, .. } => shapes[*src],
            DeployedOp::Add { lhs, .. } => shapes[*lhs],
            DeployedOp::Concat { srcs } => {
                let [_, h, w] = shapes[srcs[0]];
                [srcs.iter().map(|s| shapes[*s][0]).sum(), h, w]
            }
            DeployedOp::PixelShuffle { factor, src } => {
                let [c, h, w] = shapes[*src];
                [c / (factor * factor), h * factor, w * factor]
            }
            DeployedOp::BicubicUp { scale, src } => {
                let [c, h, w] = shapes[*src];
                [c, h * scale, w * scale]
            }
        };
        shapes.push(next);
    }
    Ok(shapes)
}

/// Replay every convolution of `graph` at an `h × w` input, adding to
/// `acc`.
///
/// # Errors
///
/// A shape the graph cannot run, or a kernel error.
pub fn replay(graph: &DeployedNetwork, h: usize, w: usize, acc: &mut Replay) -> Result<(), String> {
    let shapes = value_shapes(graph, h, w)?;
    let err = |e: scales_tensor::TensorError| e.to_string();
    for (i, op) in graph.ops().iter().enumerate() {
        let [oc, oh, ow] = shapes[i + 1];
        match op {
            DeployedOp::FloatConv { conv, src } => {
                let [ic, ih, iw] = shapes[*src];
                let k = conv.weight().shape()[2];
                let input = fill(ic * ih * iw, i as u64);
                let mut out = vec![0.0; oc * oh * ow];
                let mut col = Vec::new();
                conv.forward_into(&input, 1, ih, iw, &mut col, &mut out)
                    .map_err(err)?;
                acc.float_conv_us += time_us(|| {
                    conv.forward_into(black_box(&input), 1, ih, iw, &mut col, &mut out)
                        .expect("checked above");
                    black_box(&out);
                });
                let (m, kk, n) = (oc, ic * k * k, oh * ow);
                let a = fill(m * kk, 1);
                let b = fill(kk * n, 2);
                let mut c = vec![0.0; m * n];
                let kernel = scales_tensor::backend::kernel();
                acc.gemm_us += time_us(|| {
                    kernel.gemm(black_box(&a), black_box(&b), &mut c, m, kk, n);
                    black_box(&c);
                });
                acc.gemm_flops += 2 * (m * kk * n) as u64;
                acc.cost
                    .add(conv2d_cost(ic, oc, k, oh, ow, false, conv.bias().is_some()));
            }
            DeployedOp::Body { conv, src } => {
                let [ic, ih, iw] = shapes[*src];
                let DeployedBodyConv::Scales(scales) = conv.as_ref() else {
                    continue;
                };
                let binary = scales.conv();
                let k = binary.kernel();
                let input = fill(ic * ih * iw, i as u64);
                let mut out = vec![0.0; oc * oh * ow];
                let mut scratch = ConvScratch::new();
                conv.forward_into(&input, 1, ih, iw, &mut scratch, &mut out)
                    .map_err(err)?;
                acc.scales_us += time_us(|| {
                    conv.forward_into(black_box(&input), 1, ih, iw, &mut scratch, &mut out)
                        .expect("checked above");
                    black_box(&out);
                });
                let mut bits = BitScratch::default();
                acc.binary_us += time_us(|| {
                    binary
                        .forward_into(black_box(&input), 1, ih, iw, &mut bits, &mut out)
                        .expect("same shape as above");
                    black_box(&out);
                });
                let weight =
                    Tensor::from_vec(fill(oc * ic * k * k, 3), &[oc, ic, k, k]).map_err(err)?;
                let float = FloatConv2d::new(weight, None, binary.spec()).map_err(err)?;
                let mut col = Vec::new();
                acc.float_same_us += time_us(|| {
                    float
                        .forward_into(black_box(&input), 1, ih, iw, &mut col, &mut out)
                        .expect("same shape as above");
                    black_box(&out);
                });
                acc.scales_calls += 1;
                let cost = conv2d_cost(ic, oc, k, oh, ow, true, false);
                acc.binary_ops += cost.bin_ops;
                acc.cost.add(cost);
            }
            _ => {}
        }
    }
    Ok(())
}
