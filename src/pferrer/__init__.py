"""Staircase diagrams in p dimensions and their monomial ideals."""
