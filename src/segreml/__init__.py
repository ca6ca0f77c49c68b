"""Exact ML degrees and Euler stratification for scaled Segre products P1 x P1 x Pn."""
