(* The standing plan-identity check: the digest of a fixed query list
   (test/digest/identity_digest.mli), recomputed at widths 1 and 3, must
   equal the committed test/identity_digest.txt line for line.  A change
   meant to alter plans regenerates the file (`make identity-digest`)
   and names the lines it changed. *)

let t name f = Alcotest.test_case name `Quick f

let committed () =
  In_channel.with_open_text "identity_digest.txt" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let check_width ~width lines =
  let expected = committed () in
  Alcotest.(check int)
    (Printf.sprintf "width %d: line count" width)
    (List.length expected) (List.length lines);
  List.iter2
    (fun e (label, got) ->
      Alcotest.(check string) (Printf.sprintf "width %d: %s" width label) e got)
    expected lines

let width_1 () =
  Helpers.with_watchdog (fun () -> check_width ~width:1 (Identity_digest.lines ()))

let width_3 () =
  Helpers.with_forced_pool 3 (fun pool ->
      check_width ~width:3 (Identity_digest.lines ~pool ()))

let suite =
  ( "identity digest",
    [
      t "plans match the committed digest on one domain" width_1;
      t "plans match the committed digest on 3 domains" width_3;
    ] )
