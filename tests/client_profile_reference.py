"""The per-client profile of the proximal strength, computed client by
client from one client's (n, M) effective masks: the fraction of absent
(sample, modality) slots, a kind, and the gamma that kind and rate earn.
client.build_train_set derives the same floats for every client in one
array pass; the tests compare the two with exact equality."""

import numpy as np

CLIENT_KINDS = ("aligned", "partial_missing", "single_modality")


def client_missing_rate(masks):
    """Fraction of (sample, modality) slots absent on this client."""
    if len(masks) == 0:
        raise ValueError("client has no samples")
    return np.count_nonzero(~masks) / masks.size


def classify_client(masks):
    """aligned, partial_missing, or single_modality from effective masks."""
    if len(masks) == 0:
        raise ValueError("client has no samples")
    if not masks.any(axis=0).all():
        return "single_modality"
    return "aligned" if masks.all() else "partial_missing"


def gamma_for_client(gamma_max, kind, missing_rate):
    """0 for aligned, gamma_max for single-modality, linear in the
    missing rate between."""
    if kind not in CLIENT_KINDS:
        raise ValueError(f"kind must be one of {CLIENT_KINDS}, got {kind!r}")
    if not 0.0 <= missing_rate <= 1.0:
        raise ValueError(f"missing_rate must lie in [0, 1], got {missing_rate}")
    if kind == "aligned":
        return 0.0
    if kind == "single_modality":
        return gamma_max
    return gamma_max * missing_rate


def client_profile(masks, enabled, gamma_max):
    """(missing rate, gamma) of one client as a run logs them: 0.0 for
    both on an empty client, and gamma 0.0 with the regularizer off."""
    if len(masks) == 0:
        return 0.0, 0.0
    rate = client_missing_rate(masks)
    return rate, gamma_for_client(gamma_max, classify_client(masks), rate) if enabled else 0.0
