"""Single-convolutional-layer classifier for multichannel EEG-style epochs,
with preprocessing, training, metrics and frequency-domain probing."""

__version__ = "0.1.0"
