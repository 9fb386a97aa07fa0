include Ft_obs.Telemetry (* perfbench names Ft_engine.Telemetry *)
