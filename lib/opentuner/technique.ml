type t = {
  name : string;
  propose : unit -> Ft_flags.Cv.t;
  feedback : Ft_flags.Cv.t -> float -> unit;
}
