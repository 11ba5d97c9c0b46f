(* Print the plan-identity digest, one line per query, searched on one
   domain: `make identity-digest` writes it to test/identity_digest.txt. *)

let () = List.iter (fun (_, line) -> print_endline line) (Identity_digest.lines ())
