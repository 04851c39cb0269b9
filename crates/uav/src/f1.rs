//! The F-1 visual performance model (roofline of safe velocity vs. action
//! throughput).

use crate::error::UavModelError;
use crate::payload::PayloadAnalysis;
use crate::safety::safe_velocity;
use crate::spec::UavSpec;

/// Fraction of the velocity ceiling that defines the knee-point: the knee
/// is the smallest action throughput whose safe velocity reaches this
/// fraction of the asymptotic (infinite-compute) safe velocity.
const KNEE_FRACTION: f64 = 0.98;

/// Reaction distance per decision, metres: between two consecutive
/// decisions of the sensing-compute-control pipeline the UAV may advance
/// at most this far, or it outruns its own perception in clutter. This
/// linear term is what gives the F-1 model its roofline shape
/// (`V <= d_react * f` below the knee, body-dynamics ceiling above).
///
/// Fitted so the paper's knee-points are reproduced with 60 FPS sensors:
/// ~46 FPS for the nano-UAV and ~27 FPS for the DJI Spark (Fig. 11).
const REACTION_DISTANCE_M: f64 = 0.22;

/// Relative margin around the knee inside which a design counts as
/// balanced.
const BALANCE_MARGIN: f64 = 0.15;

/// Classification of a design point against the F-1 knee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provisioning {
    /// Action throughput below the knee: compute-bound, safe velocity
    /// sacrificed.
    UnderProvisioned,
    /// Within the balance margin of the knee.
    Balanced,
    /// Throughput beyond the knee: power/weight spent with no velocity
    /// gain.
    OverProvisioned,
}

/// The F-1 model for one (UAV, compute payload, sensor) triple.
///
/// Plots the relationship between action throughput (the decision rate of
/// the sensor-compute-control pipeline) and the UAV's safe velocity. The
/// payload weight lowers the body-dynamics ceiling; the sensor frame rate
/// bounds the achievable action throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct F1Model {
    spec: UavSpec,
    payload: PayloadAnalysis,
    sensor_fps: f64,
}

impl F1Model {
    /// Builds the model for `spec` carrying `payload_g` grams of compute
    /// payload and sensing at `sensor_fps` frames per second.
    ///
    /// # Errors
    ///
    /// Payload validation errors from [`PayloadAnalysis::new`], or
    /// [`UavModelError::InvalidSensorRate`] when `sensor_fps` is not
    /// finite and strictly positive.
    pub fn new(spec: UavSpec, payload_g: f64, sensor_fps: f64) -> Result<F1Model, UavModelError> {
        let payload = PayloadAnalysis::new(&spec, payload_g)?;
        if !sensor_fps.is_finite() || sensor_fps <= 0.0 {
            return Err(UavModelError::InvalidSensorRate { value: sensor_fps });
        }
        Ok(F1Model { spec, payload, sensor_fps })
    }

    /// The UAV specification.
    pub fn spec(&self) -> &UavSpec {
        &self.spec
    }

    /// Payload physics of this configuration.
    pub fn payload(&self) -> &PayloadAnalysis {
        &self.payload
    }

    /// Sensor frame rate in FPS.
    pub fn sensor_fps(&self) -> f64 {
        self.sensor_fps
    }

    /// Action throughput for a given compute rate: the pipeline cannot
    /// decide faster than either the sensor or the compute.
    pub fn action_throughput(&self, compute_fps: f64) -> f64 {
        compute_fps.min(self.sensor_fps).max(0.0)
    }

    /// End-to-end response time of the sensing-compute-control pipeline
    /// at a given compute rate, in seconds.
    pub fn response_time_s(&self, compute_fps: f64) -> f64 {
        let compute = self.action_throughput(compute_fps);
        if compute <= 0.0 {
            return f64::INFINITY;
        }
        1.0 / self.sensor_fps + 1.0 / compute + self.spec.control_latency_s
    }

    /// Safe velocity at a given compute rate, in m/s: the roofline
    /// minimum of the per-decision reaction bound (`d_react * f`) and the
    /// stopping-distance bound at this payload's maximum braking
    /// acceleration.
    pub fn safe_velocity(&self, compute_fps: f64) -> f64 {
        let t = self.response_time_s(compute_fps);
        if !t.is_finite() {
            return 0.0;
        }
        let braking = safe_velocity(self.payload.max_accel_ms2, t, self.spec.sensor_range_m);
        let reaction = REACTION_DISTANCE_M * self.action_throughput(compute_fps);
        braking.min(reaction)
    }

    /// The body-dynamics ceiling: safe velocity with infinite compute
    /// (response time limited by sensor + control only), in m/s. The
    /// sensor rate still bounds the reaction term.
    pub fn velocity_ceiling(&self) -> f64 {
        let t = 1.0 / self.sensor_fps + self.spec.control_latency_s;
        let braking = safe_velocity(self.payload.max_accel_ms2, t, self.spec.sensor_range_m);
        braking.min(REACTION_DISTANCE_M * self.sensor_fps)
    }

    /// The knee-point: the minimum compute throughput (FPS) that achieves
    /// 98 % of the velocity ceiling, or `None` when the UAV
    /// is grounded or even the sensor rate cannot reach the knee.
    pub fn knee_fps(&self) -> Option<f64> {
        if self.payload.grounded() {
            return None;
        }
        let target = self.velocity_ceiling() * KNEE_FRACTION;
        if self.safe_velocity(self.sensor_fps) < target {
            return None; // sensor-bound before reaching the knee
        }
        // Bisection on the monotone safe-velocity curve.
        let (mut lo, mut hi) = (1e-3, self.sensor_fps);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.safe_velocity(mid) >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }

    /// Classifies a compute design's throughput against the knee.
    ///
    /// When no knee exists (grounded or sensor-bound), every flying design
    /// is reported as under-provisioned.
    pub fn classify(&self, compute_fps: f64) -> Provisioning {
        match self.knee_fps() {
            None => Provisioning::UnderProvisioned,
            Some(knee) => {
                if compute_fps < knee * (1.0 - BALANCE_MARGIN) {
                    Provisioning::UnderProvisioned
                } else if compute_fps > knee * (1.0 + BALANCE_MARGIN) {
                    Provisioning::OverProvisioned
                } else {
                    Provisioning::Balanced
                }
            }
        }
    }

    /// Samples the roofline curve at `points` log-spaced throughputs up to
    /// the sensor rate.
    pub fn curve(&self, points: usize) -> F1Curve {
        let mut samples = Vec::with_capacity(points);
        if points > 0 {
            let lo: f64 = 1.0;
            let hi: f64 = self.sensor_fps.max(2.0);
            for i in 0..points {
                let f = lo * (hi / lo).powf(i as f64 / (points - 1).max(1) as f64);
                samples.push((f, self.safe_velocity(f)));
            }
        }
        F1Curve { samples, ceiling: self.velocity_ceiling(), knee_fps: self.knee_fps() }
    }
}

/// A sampled F-1 roofline curve.
#[derive(Debug, Clone, PartialEq)]
pub struct F1Curve {
    /// `(throughput FPS, safe velocity m/s)` samples.
    pub samples: Vec<(f64, f64)>,
    /// Body-dynamics velocity ceiling, m/s.
    pub ceiling: f64,
    /// Knee-point throughput, if one exists.
    pub knee_fps: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nano() -> F1Model {
        F1Model::new(UavSpec::nano(), 24.0, 60.0).unwrap()
    }

    fn micro() -> F1Model {
        F1Model::new(UavSpec::micro(), 24.0, 60.0).unwrap()
    }

    #[test]
    fn safe_velocity_monotone_in_throughput() {
        let f1 = nano();
        let mut prev = 0.0;
        for fps in [1.0, 5.0, 10.0, 20.0, 40.0, 60.0] {
            let v = f1.safe_velocity(fps);
            assert!(v >= prev, "velocity dropped at {fps} FPS");
            prev = v;
        }
    }

    #[test]
    fn ceiling_bounds_curve() {
        let f1 = nano();
        let ceil = f1.velocity_ceiling();
        for fps in [1.0, 10.0, 100.0, 1000.0] {
            assert!(f1.safe_velocity(fps) <= ceil + 1e-9);
        }
    }

    #[test]
    fn paper_knee_points_approximately_reproduced() {
        // Fig. 11: nano knee ~46 FPS, DJI Spark knee ~27 FPS (both with
        // 60 FPS sensors). Shape target: nano knee ~1.7x the micro knee.
        let nano_knee = nano().knee_fps().expect("nano knee");
        let micro_knee = micro().knee_fps().expect("micro knee");
        assert!((40.0..=52.0).contains(&nano_knee), "nano knee {nano_knee:.1} FPS");
        assert!((23.0..=32.0).contains(&micro_knee), "micro knee {micro_knee:.1} FPS");
        let ratio = nano_knee / micro_knee;
        assert!((1.4..=2.0).contains(&ratio), "knee ratio {ratio:.2}");
    }

    #[test]
    fn heavier_payload_lowers_ceiling() {
        let light = F1Model::new(UavSpec::nano(), 24.0, 60.0).unwrap();
        let heavy = F1Model::new(UavSpec::nano(), 65.0, 60.0).unwrap();
        assert!(heavy.velocity_ceiling() < light.velocity_ceiling());
    }

    #[test]
    fn classification_brackets_knee() {
        let f1 = nano();
        let knee = f1.knee_fps().unwrap();
        assert_eq!(f1.classify(knee), Provisioning::Balanced);
        assert_eq!(f1.classify(knee * 0.4), Provisioning::UnderProvisioned);
        assert_eq!(f1.classify(knee * 2.0), Provisioning::OverProvisioned);
    }

    #[test]
    fn grounded_uav_has_no_knee() {
        let f1 = F1Model::new(UavSpec::nano(), 200.0, 60.0).unwrap();
        assert!(f1.payload().grounded());
        assert!(f1.knee_fps().is_none());
        assert_eq!(f1.safe_velocity(100.0), 0.0);
    }

    #[test]
    fn action_throughput_sensor_bound() {
        let f1 = nano();
        assert_eq!(f1.action_throughput(200.0), 60.0);
        assert_eq!(f1.action_throughput(30.0), 30.0);
    }

    #[test]
    fn curve_is_well_formed() {
        let c = nano().curve(32);
        assert_eq!(c.samples.len(), 32);
        assert!(c.knee_fps.is_some());
        for w in c.samples.windows(2) {
            assert!(w[1].0 > w[0].0); // throughputs increase
            assert!(w[1].1 >= w[0].1 - 1e-9); // velocities non-decreasing
        }
    }

    #[test]
    fn slower_sensor_lowers_ceiling() {
        let fast = F1Model::new(UavSpec::micro(), 24.0, 60.0).unwrap();
        let slow = F1Model::new(UavSpec::micro(), 24.0, 30.0).unwrap();
        assert!(slow.velocity_ceiling() < fast.velocity_ceiling());
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        assert!(matches!(
            F1Model::new(UavSpec::nano(), f64::NAN, 60.0),
            Err(UavModelError::NonFinitePayload { .. })
        ));
        assert!(matches!(
            F1Model::new(UavSpec::nano(), -5.0, 60.0),
            Err(UavModelError::NegativePayload { .. })
        ));
        for bad_fps in [0.0, -30.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    F1Model::new(UavSpec::nano(), 24.0, bad_fps),
                    Err(UavModelError::InvalidSensorRate { .. })
                ),
                "sensor rate {bad_fps} accepted"
            );
        }
    }
}
