"""Desk-scale laboratory for few-shot out-of-distribution detection.

A negative-training classifier, a self-supervised generator of boundary
outliers, and a robust evaluation suite (clean, adversarial, and certified
AUROC) with few-shot robustness sweeps.
"""
