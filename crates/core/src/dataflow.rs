//! The two dataflows evaluated in the paper (§IV-A, Fig. 9).

use serde::bin::{BinCodec, BinError, BinResult, Reader, Writer};

/// How a dot-product layer is mapped onto the CAM.
///
/// * **Weight-stationary**: kernel contexts occupy the CAM rows and
///   activation contexts stream as search keys. Utilization suffers when
///   a layer has few kernels (the paper's example: 6 kernels in a 64-row
///   CAM → 9.4%).
/// * **Activation-stationary**: activation contexts occupy the rows and
///   kernel contexts stream. Conv layers have hundreds of output
///   positions, so the rows fill up (→ ~100% utilization) and fewer
///   search operations are needed overall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Kernels in rows, activations as keys.
    WeightStationary,
    /// Activations in rows, kernels as keys.
    ActivationStationary,
}

impl Dataflow {
    /// Short label used in figure output (`WS`/`AS`).
    pub fn label(&self) -> &'static str {
        match self {
            Dataflow::WeightStationary => "WS",
            Dataflow::ActivationStationary => "AS",
        }
    }

    /// Both dataflows, WS first (the paper's presentation order).
    pub fn both() -> [Dataflow; 2] {
        [Dataflow::WeightStationary, Dataflow::ActivationStationary]
    }
}

impl BinCodec for Dataflow {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            Dataflow::WeightStationary => 0,
            Dataflow::ActivationStationary => 1,
        });
    }

    fn decode(r: &mut Reader<'_>) -> BinResult<Self> {
        match r.get_u8()? {
            0 => Ok(Dataflow::WeightStationary),
            1 => Ok(Dataflow::ActivationStationary),
            other => Err(BinError::Invalid(format!("Dataflow tag {other}"))),
        }
    }
}

impl std::fmt::Display for Dataflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dataflow::WeightStationary => write!(f, "weight-stationary"),
            Dataflow::ActivationStationary => write!(f, "activation-stationary"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Dataflow::WeightStationary.label(), "WS");
        assert_eq!(Dataflow::ActivationStationary.label(), "AS");
    }

    #[test]
    fn display() {
        assert_eq!(
            Dataflow::ActivationStationary.to_string(),
            "activation-stationary"
        );
    }

    #[test]
    fn bin_codec_round_trips_and_rejects_bad_tags() {
        for df in Dataflow::both() {
            let mut w = Writer::new();
            df.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(Dataflow::decode(&mut r).unwrap(), df);
            r.finish().unwrap();
        }
        let mut r = Reader::new(&[9u8]);
        assert!(Dataflow::decode(&mut r).is_err());
    }

    #[test]
    fn both_ordering() {
        assert_eq!(
            Dataflow::both(),
            [Dataflow::WeightStationary, Dataflow::ActivationStationary]
        );
    }
}
