"""What did the network learn to listen to?

Trains a tiny model on two-tone data, then interrogates it with the two
frequency probes: a sinusoid sweep of the pooled activations (which input
frequencies drive each pooled unit) and a white-noise estimate of each conv
filter's power response, compared against the analytic |DFT|^2 of its kernel.
"""

import numpy as np

from eegcnn.data import split_dataset
from eegcnn.interpret import (
    ProbeSpec,
    conv_filter_response,
    fir_power_response,
    pooling_sensitivity,
)
from eegcnn.model import ModelConfig
from eegcnn.synth import synthetic_dataset
from eegcnn.train import TrainConfig, train

FS = 100.0


def main():
    subjects = synthetic_dataset(
        n_subjects=12, channels=2, fs=FS, n_epochs=8,
        f0=3.0, f1=25.0, snr_db=10.0, seed=2,
    )
    split = split_dataset(subjects, seed=2)
    history = train(
        split,
        TrainConfig(epochs=30, learning_rate=3e-3, seed=0),
        ModelConfig(in_channels=2, out_channels=2, kernel=9),
    )
    model = history.best_checkpoint

    spec = ProbeSpec(
        fs=FS, epoch_len=500, channels=2,
        frequencies=np.arange(1.0, 50.0), repeats_sine=10, repeats_noise=100,
        seed=0,
    )

    smap = pooling_sensitivity(model, spec)
    print("pooled-activation sensitivity (peak frequency per pooled unit):")
    for i, row in enumerate(smap.activation):
        f_peak = smap.freqs[np.argmax(row)]
        print(f"  unit {i}: peak at {f_peak:g} Hz "
              f"(activation {row.max():.3f}, floor {row.min():.3f})")

    resp = conv_filter_response(model, spec)
    print("\nconv filter power responses vs analytic kernel spectra:")
    band = (resp.freqs >= 1.0) & (resp.freqs <= 49.0)
    for i in range(model.conv_weight.shape[0]):
        analytic = sum(
            fir_power_response(model.conv_weight[i, j], resp.freqs[band], FS)
            for j in range(model.conv_weight.shape[1])
        ) * (2.0 / FS)
        est = resp.power[i][band]
        rel_rms = np.sqrt(np.mean((est - analytic) ** 2)) / np.sqrt(np.mean(analytic**2))
        print(f"  filter {i}: relative RMS vs analytic = {rel_rms:.3f}")


if __name__ == "__main__":
    main()
