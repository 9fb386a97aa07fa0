(** The search-technique interface of the OpenTuner-style ensemble.

    OpenTuner (Ansel et al., PACT'14) coordinates many search techniques
    over one shared result database; each technique repeatedly proposes a
    configuration and receives the measured cost of every configuration
    the ensemble evaluates.  This module fixes that contract: a technique
    is a stateful [propose]/[feedback] pair over whole-program CVs. *)

type t = {
  name : string;
  propose : unit -> Ft_flags.Cv.t;  (** next configuration to test *)
  feedback : Ft_flags.Cv.t -> float -> unit;
      (** measured cost (seconds) of a configuration this technique
          proposed *)
}
