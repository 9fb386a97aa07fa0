(* Aliases over {!Ft_engine.Procpool}; see shard.mli. *)

let map ~nodes ?on_result f a =
  Ft_engine.Procpool.map ~workers:nodes ?on_result f a

let install () = ()
