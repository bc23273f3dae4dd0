//! Experiment harness (see the `experiments` binary).
