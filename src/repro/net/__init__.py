"""Network substrate: IPv4 addressing, AS registry, latency model, DNS, topology.

Everything the simulated Internet needs below the CDN: address allocation,
whois-style IP-to-AS mapping (Table II), a distance-driven delay model
(Figures 2, 7, 17, 18 and the CBG input), DNS resolution machinery
(Section II step 3), and the vantage-point/subnet topology (Section III-B
and Figure 12).
"""
